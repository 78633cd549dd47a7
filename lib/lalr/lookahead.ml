open Lg_grammar

(* Terminal sets as bitsets, 63 terminals to a word. *)
let bits_add set t = set.(t / 63) <- set.(t / 63) lor (1 lsl (t mod 63))

let bits_union_into dst src =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) lor src.(i)
  done

let bits_elements set =
  let acc = ref [] in
  for t = (Array.length set * 63) - 1 downto 0 do
    if set.(t / 63) land (1 lsl (t mod 63)) <> 0 then acc := t :: !acc
  done;
  !acc

type t = {
  la : (int, int array) Hashtbl.t;  (** key: state * nprods + prod *)
  nprods : int;
  nt_transitions : int;
}

(* The digraph algorithm of DeRemer and Pennello: given a relation [rel]
   (as successor lists) and initial sets [f0], compute the smallest F with
   F(x) = f0(x) U union of F(y) for x rel y, collapsing cycles. The rows
   of [f0] are copied, never written. *)
let digraph n rel f0 =
  let f = Array.map Array.copy f0 in
  let depth = Array.make n 0 in
  let stack = ref [] and height = ref 0 in
  let rec traverse x =
    stack := x :: !stack;
    incr height;
    let d = !height in
    depth.(x) <- d;
    List.iter
      (fun y ->
        if depth.(y) = 0 then traverse y;
        depth.(x) <- min depth.(x) depth.(y);
        bits_union_into f.(x) f.(y))
      rel.(x);
    if depth.(x) = d then begin
      let rec pop () =
        match !stack with
        | top :: rest ->
            depth.(top) <- max_int;
            f.(top) <- f.(x);
            stack := rest;
            decr height;
            if top <> x then pop ()
        | [] -> assert false
      in
      pop ()
    end
  in
  for x = 0 to n - 1 do
    if depth.(x) = 0 then traverse x
  done;
  f

let compute lr0 =
  let g = Lr0.grammar lr0 in
  let analysis = Analysis.compute g in
  let nstates = Lr0.state_count lr0 in
  let nterms = Cfg.terminal_count g in
  let words = (nterms + 62) / 63 in
  let nprods = Cfg.production_count g + 1 (* augmented *) in
  (* Every state's transitions, contiguous and ascending by symbol code
     (terminals first), so one state's transition on a symbol is a binary
     search away. *)
  let code = function Cfg.T t -> t | Cfg.NT a -> nterms + a in
  let first = Array.make (nstates + 1) 0 in
  for s = 0 to nstates - 1 do
    first.(s + 1) <- first.(s) + List.length (Lr0.state lr0 s).Lr0.transitions
  done;
  let sym = Array.make first.(nstates) 0 and dst = Array.make first.(nstates) 0 in
  for s = 0 to nstates - 1 do
    List.sort
      (fun (a, _) (b, _) -> Int.compare (code a) (code b))
      (Lr0.state lr0 s).Lr0.transitions
    |> List.iteri (fun i (x, d) ->
           sym.(first.(s) + i) <- code x;
           dst.(first.(s) + i) <- d)
  done;
  let find s c =
    let rec go lo hi =
      if lo >= hi then invalid_arg "Lookahead: no transition"
      else
        let mid = (lo + hi) / 2 in
        if sym.(mid) = c then mid
        else if sym.(mid) < c then go (mid + 1) hi
        else go lo mid
    in
    go first.(s) first.(s + 1)
  in
  (* Nonterminal transitions, numbered densely; [nt_of.(k)] is transition
     k's number, or -1 for a terminal transition. *)
  let nt_of = Array.make (Array.length sym) (-1) and n = ref 0 in
  Array.iteri
    (fun k c ->
      if c >= nterms then begin
        nt_of.(k) <- !n;
        incr n
      end)
    sym;
  let n = !n in
  let nt_trans = Array.make n 0 (* transition index *) in
  let nt_state = Array.make n 0 in
  for s = 0 to nstates - 1 do
    for k = first.(s) to first.(s + 1) - 1 do
      if nt_of.(k) >= 0 then begin
        nt_trans.(nt_of.(k)) <- k;
        nt_state.(nt_of.(k)) <- s
      end
    done
  done;
  (* DR: terminals shiftable straight after the transition. reads: (p,A)
     reads (r,C) iff r = goto(p,A) and C is nullable. *)
  let accept_trans = nt_of.(find (Lr0.start_state lr0) (code (Cfg.NT g.start))) in
  let dr = Array.init n (fun _ -> Array.make words 0) in
  let reads = Array.make n [] in
  for idx = 0 to n - 1 do
    let r = dst.(nt_trans.(idx)) in
    for k = first.(r + 1) - 1 downto first.(r) do
      if sym.(k) < nterms then bits_add dr.(idx) sym.(k)
      else if Analysis.nullable_nt analysis (sym.(k) - nterms) then
        reads.(idx) <- nt_of.(k) :: reads.(idx)
    done;
    (* The start transition also "reads" end-of-input. *)
    if idx = accept_trans then bits_add dr.(idx) Cfg.eof
  done;
  let read_sets = digraph n reads dr in
  (* Each production's RHS is nullable from [nullable_from.(pi)] on. *)
  let nullable_from =
    Array.map
      (fun (p : Cfg.production) ->
        let i = ref (Array.length p.rhs) in
        while !i > 0 && Analysis.nullable_symbol analysis p.rhs.(!i - 1) do
          decr i
        done;
        !i)
      g.productions
  in
  (* includes and lookback, computed by walking each production's RHS from
     each state carrying its LHS transition. *)
  let includes = Array.make n [] in
  let lookback : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  for idx = 0 to n - 1 do
    let b = sym.(nt_trans.(idx)) - nterms in
    List.iter
      (fun pi ->
        let rhs = g.productions.(pi).rhs in
        let q = ref nt_state.(idx) in
        Array.iteri
          (fun i x ->
            let k = find !q (code x) in
            (match x with
            | Cfg.NT _ when i + 1 >= nullable_from.(pi) ->
                includes.(nt_of.(k)) <- idx :: includes.(nt_of.(k))
            | Cfg.NT _ | Cfg.T _ -> ());
            q := dst.(k))
          rhs;
        (* !q is the state reached after the whole RHS: a reduction site. *)
        let key = (!q * nprods) + pi in
        let prev = Option.value ~default:[] (Hashtbl.find_opt lookback key) in
        Hashtbl.replace lookback key (idx :: prev))
      g.prods_of.(b)
  done;
  let follow_sets = digraph n includes read_sets in
  (* LA(q, prod) = union of Follow over lookback. *)
  let la = Hashtbl.create (Hashtbl.length lookback) in
  Hashtbl.iter
    (fun key idxs ->
      let set =
        match idxs with
        | [ j ] -> follow_sets.(j)
        | _ ->
            let set = Array.make words 0 in
            List.iter (fun j -> bits_union_into set follow_sets.(j)) idxs;
            set
      in
      Hashtbl.replace la key set)
    lookback;
  (* The augmented production reduces (accepts) on end-of-input in the
     state reached by goto(start, S). *)
  let accept = Array.make words 0 in
  bits_add accept Cfg.eof;
  Hashtbl.replace la
    ((dst.(nt_trans.(accept_trans)) * nprods) + Lr0.augmented_prod lr0)
    accept;
  { la; nprods; nt_transitions = n }

let lookaheads t ~state ~prod =
  match Hashtbl.find_opt t.la ((state * t.nprods) + prod) with
  | Some set -> bits_elements set
  | None -> []

let nt_transition_count t = t.nt_transitions
