type t = {
  nstates : int;
  nclasses : int;
  class_of : int array;  (** 256 entries: byte -> alphabet class *)
  trans : int array;  (** state * nclasses + class -> state or -1 *)
  accepts : int array;  (** state -> rule or -1 *)
  start : int;
}

(* A match packs into one int: the end offset above [rule_bits], the rule
   below. *)
let rule_bits = 24

let state_count t = t.nstates
let start t = t.start
let accept t s = t.accepts.(s)

let next t s c =
  if s < 0 then -1 else t.trans.((s * t.nclasses) + t.class_of.(Char.code c))

let of_nfa nfa =
  let pieces = Char_class.split_alphabet (Nfa.edge_classes nfa) in
  let nclasses = List.length pieces in
  let class_of = Array.make 256 0 in
  List.iteri
    (fun idx piece -> Char_class.iter (fun c -> class_of.(Char.code c) <- idx) piece)
    pieces;
  let representative = Array.of_list (List.filter_map Char_class.choose pieces) in
  let table : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let states = ref [] and count = ref 0 in
  let trans_rows = ref [] in
  let rec explore subset =
    match Hashtbl.find_opt table subset with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        Hashtbl.add table subset id;
        states := (id, subset) :: !states;
        let row = Array.make nclasses (-1) in
        trans_rows := (id, row) :: !trans_rows;
        Array.iteri
          (fun cls repr ->
            let target = Nfa.step nfa subset repr in
            if target <> [] then row.(cls) <- explore target)
          representative;
        id
  in
  let start = explore (Nfa.eps_closure nfa [ Nfa.start nfa ]) in
  let nstates = !count in
  let trans = Array.make (nstates * nclasses) (-1) in
  List.iter
    (fun (id, row) -> Array.blit row 0 trans (id * nclasses) nclasses)
    !trans_rows;
  let accepts = Array.make nstates (-1) in
  List.iter
    (fun (id, subset) ->
      match Nfa.accepting_rule nfa subset with
      | Some rule when rule >= 1 lsl rule_bits -> invalid_arg "Dfa.of_nfa: too many rules"
      | Some rule -> accepts.(id) <- rule
      | None -> ())
    !states;
  { nstates; nclasses; class_of; trans; accepts; start }

let reachable t =
  let seen = Array.make t.nstates false in
  let rec visit s =
    if s >= 0 && not seen.(s) then begin
      seen.(s) <- true;
      for c = 0 to t.nclasses - 1 do
        visit t.trans.((s * t.nclasses) + c)
      done
    end
  in
  visit t.start;
  seen

let minimize t =
  let seen = reachable t in
  (* Moore refinement over reachable states; the implicit dead state is its
     own block (-1). *)
  let block = Array.make t.nstates (-1) in
  (* Initial partition: by accept label. *)
  let labels = Hashtbl.create 8 in
  let nblocks = ref 0 in
  for s = 0 to t.nstates - 1 do
    if seen.(s) then begin
      let lbl = t.accepts.(s) in
      match Hashtbl.find_opt labels lbl with
      | Some b -> block.(s) <- b
      | None ->
          Hashtbl.add labels lbl !nblocks;
          block.(s) <- !nblocks;
          incr nblocks
    end
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    (* Signature of a state: its block plus blocks of all successors. *)
    let sigs = Hashtbl.create 64 in
    let newblock = Array.make t.nstates (-1) in
    let next_id = ref 0 in
    for s = 0 to t.nstates - 1 do
      if seen.(s) then begin
        let signature =
          ( block.(s),
            Array.init t.nclasses (fun c ->
                let d = t.trans.((s * t.nclasses) + c) in
                if d = -1 then -1 else block.(d)) )
        in
        match Hashtbl.find_opt sigs signature with
        | Some b -> newblock.(s) <- b
        | None ->
            Hashtbl.add sigs signature !next_id;
            newblock.(s) <- !next_id;
            incr next_id
      end
    done;
    if !next_id <> !nblocks then begin
      changed := true;
      nblocks := !next_id;
      Array.blit newblock 0 block 0 t.nstates
    end
  done;
  let nstates = !nblocks in
  let trans = Array.make (nstates * t.nclasses) (-1) in
  let accepts = Array.make nstates (-1) in
  for s = 0 to t.nstates - 1 do
    if seen.(s) then begin
      let b = block.(s) in
      accepts.(b) <- t.accepts.(s);
      for c = 0 to t.nclasses - 1 do
        let d = t.trans.((s * t.nclasses) + c) in
        trans.((b * t.nclasses) + c) <- (if d = -1 then -1 else block.(d))
      done
    end
  done;
  {
    nstates;
    nclasses = t.nclasses;
    class_of = t.class_of;
    trans;
    accepts;
    start = block.(t.start);
  }

let rec longest t input n s i best =
  if s < 0 then best
  else
    let rule = t.accepts.(s) in
    let best = if rule >= 0 then (i lsl rule_bits) lor rule else best in
    if i >= n then best
    else
      longest t input n
        t.trans.((s * t.nclasses) + t.class_of.(Char.code (String.unsafe_get input i)))
        (i + 1) best

let longest_match t input from = longest t input (String.length input) t.start from (-1)
let match_rule m = m land ((1 lsl rule_bits) - 1)
let match_end m = m lsr rule_bits

let exec_longest t input from =
  let m = longest_match t input from in
  if m < 0 then None else Some (match_rule m, match_end m)

let table_bytes t = 2 * ((t.nstates * t.nclasses) + t.nstates + 256)
