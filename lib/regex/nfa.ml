type t = {
  nstates : int;
  eps : int list array;
  edges : (Char_class.t * int) list array;
  start : int;
  accepts : int array;  (** rule id or -1 *)
}

type builder = {
  mutable count : int;
  mutable b_eps : (int * int) list;
  mutable b_edges : (int * Char_class.t * int) list;
  mutable b_accepts : (int * int) list;
}

let fresh b =
  let s = b.count in
  b.count <- s + 1;
  s

let add_eps b from to_ = b.b_eps <- (from, to_) :: b.b_eps
let add_edge b from cls to_ = b.b_edges <- (from, cls, to_) :: b.b_edges

(* Thompson construction: returns (entry, exit) of the fragment. *)
let rec fragment b re =
  match (re : Regex_syntax.t) with
  | Eps ->
      let s = fresh b in
      (s, s)
  | Chars cls ->
      let entry = fresh b and exit = fresh b in
      add_edge b entry cls exit;
      (entry, exit)
  | Seq (x, y) ->
      let ex, xx = fragment b x in
      let ey, xy = fragment b y in
      add_eps b xx ey;
      (ex, xy)
  | Alt (x, y) ->
      let entry = fresh b and exit = fresh b in
      let ex, xx = fragment b x in
      let ey, xy = fragment b y in
      add_eps b entry ex;
      add_eps b entry ey;
      add_eps b xx exit;
      add_eps b xy exit;
      (entry, exit)
  | Star x ->
      let entry = fresh b and exit = fresh b in
      let ex, xx = fragment b x in
      add_eps b entry ex;
      add_eps b entry exit;
      add_eps b xx ex;
      add_eps b xx exit;
      (entry, exit)
  | Plus x ->
      let ex, xx = fragment b x in
      let exit = fresh b in
      add_eps b xx ex;
      add_eps b xx exit;
      (ex, exit)
  | Opt x ->
      let entry = fresh b and exit = fresh b in
      let ex, xx = fragment b x in
      add_eps b entry ex;
      add_eps b entry exit;
      add_eps b xx exit;
      (entry, exit)

let build rules =
  let b = { count = 0; b_eps = []; b_edges = []; b_accepts = [] } in
  let start = fresh b in
  List.iter
    (fun (re, rule_id) ->
      if rule_id < 0 then invalid_arg "Nfa.build: negative rule id";
      let entry, exit = fragment b re in
      add_eps b start entry;
      b.b_accepts <- (exit, rule_id) :: b.b_accepts)
    rules;
  let eps = Array.make b.count [] in
  List.iter (fun (f, t) -> eps.(f) <- t :: eps.(f)) b.b_eps;
  let edges = Array.make b.count [] in
  List.iter (fun (f, c, t) -> edges.(f) <- (c, t) :: edges.(f)) b.b_edges;
  let accepts = Array.make b.count (-1) in
  List.iter
    (fun (s, rule) ->
      if accepts.(s) = -1 || rule < accepts.(s) then accepts.(s) <- rule)
    b.b_accepts;
  { nstates = b.count; eps; edges; start; accepts }

let state_count t = t.nstates
let start t = t.start

let eps_closure t states =
  let seen = Array.make t.nstates false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter visit t.eps.(s)
    end
  in
  List.iter visit states;
  let acc = ref [] in
  for s = t.nstates - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

let step t states c =
  let targets =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (cls, dst) -> if Char_class.mem c cls then Some dst else None)
          t.edges.(s))
      states
  in
  eps_closure t targets

let accepting_rule t states =
  List.fold_left
    (fun best s ->
      let rule = t.accepts.(s) in
      if rule = -1 then best
      else
        match best with Some r when r <= rule -> best | _ -> Some rule)
    None states

let edge_classes t =
  Array.to_list t.edges |> List.concat_map (List.map fst)

let scan_longest t input from =
  let n = String.length input in
  let rec go states i best =
    if states = [] then best
    else
      let best =
        match accepting_rule t states with
        | Some rule -> Some (rule, i)
        | None -> best
      in
      if i >= n then best else go (step t states input.[i]) (i + 1) best
  in
  go (eps_closure t [ t.start ]) from None
