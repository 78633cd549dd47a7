open Lg_grammar

type assoc = Left | Right | Nonassoc
type action = Shift of int | Reduce of int | Accept | Error

type conflict = {
  state : int;
  terminal : int;
  shift : int option;
  reduces : int list;
  chosen : action;
  by_precedence : bool;
}

type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A sparse matrix packed by row displacement with a check vector (as in
   yacc). Row [r]'s non-empty cells sit at [base.{r} + column] in
   [value], and [check] holds the owner's base in the same slot, so a
   lookup is O(1) and a slot no row owns reads as empty (0). Identical
   rows share a base; distinct rows never do, which keeps the check
   exact. *)
type packed = { base : ints; check : ints; value : ints }

(* The action table has a row per state over the terminals, the goto
   table a row per state over the nonterminals. Cell codes: 0 is empty
   ([Error], or no goto); [s + 1] shifts or goes to state [s];
   [-(p + 1)] reduces by production [p], where [p] one past the last
   production is the augmented one, i.e. [Accept]. *)
type t = {
  grammar : Cfg.t;
  nstates : int;
  nterms : int;
  actions : packed;
  gotos : packed;
  conflicts : conflict list;
}

(* the first [n] cells of [a], encoded without an intermediate copy *)
let ints_of_prefix a n =
  let v = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i (Int32.of_int a.(i))
  done;
  v

(* Rows as interleaved [| col; code; col; code; ... |], columns ascending. *)
module Row = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Array.fold_left (fun h x -> ((h * 31) + x) land max_int) 0
end)

(* First-fit packing: rows are placed densest first, each distinct row at
   the first base, counting from where its search starts, that is no
   other row's base and whose slots are all free. The search starts one
   row width below the previous row's base: the denser rows placed before
   it left little but scattered holes further down, and rescanning those
   for every row would cost more than they save. Candidate bases are visited through the free
   slots for the row's first column, found by a union-find skip over
   occupied slots. An empty row gets base [-width], so its every lookup
   falls below slot 0. *)
let pack ~width rows =
  let nrows = Array.length rows in
  let base = Array.make nrows (-width) in
  let check = ref [||] and value = ref [||] and taken = ref Bytes.empty in
  (* [skip.(i)] is [i] when slot [i] is free, else some later slot. *)
  let skip = ref [||] in
  let reserve n =
    let cap = Array.length !check in
    if n > cap then begin
      let cap' = max n (2 * cap) in
      let grow a fill =
        let a' = Array.make cap' fill in
        Array.blit a 0 a' 0 cap;
        a'
      in
      check := grow !check (-1);
      value := grow !value 0;
      let skip0 = !skip in
      skip := Array.init cap' (fun k -> if k < cap then skip0.(k) else k);
      let taken' = Bytes.make cap' '\000' in
      Bytes.blit !taken 0 taken' 0 cap;
      taken := taken'
    end
  in
  let free_from i =
    let rec root j =
      reserve (j + 1);
      let k = !skip.(j) in
      if k = j then j else root k
    in
    let r = root i in
    let rec compress j =
      if j <> r then begin
        let k = !skip.(j) in
        !skip.(j) <- r;
        compress k
      end
    in
    compress i;
    r
  in
  let fits row b =
    reserve (b + width);
    Bytes.get !taken b = '\000'
    &&
    let rec go k = k >= Array.length row || (!check.(b + row.(k)) < 0 && go (k + 2)) in
    go 0
  in
  (* Room for every cell plus one row's width: growth is then rare. *)
  reserve (Array.fold_left (fun n row -> n + (Array.length row / 2)) width rows);
  let top = ref 0 and last = ref 0 in
  let placed = Row.create 64 in
  let order = Array.init nrows Fun.id in
  Array.stable_sort
    (fun r r' -> compare (Array.length rows.(r')) (Array.length rows.(r)))
    order;
  Array.iter
    (fun r ->
      let row = rows.(r) in
      if Array.length row > 0 then
        match Row.find_opt placed row with
        | Some b -> base.(r) <- b
        | None ->
            let c0 = row.(0) in
            let rec search f =
              if fits row (f - c0) then f - c0 else search (free_from (f + 1))
            in
            let b = search (free_from (max c0 (!last + c0 - width))) in
            last := b;
            Bytes.set !taken b '\001';
            for k = 0 to (Array.length row / 2) - 1 do
              let slot = b + row.(2 * k) in
              !check.(slot) <- b;
              !value.(slot) <- row.((2 * k) + 1);
              !skip.(slot) <- slot + 1;
              top := max !top (slot + 1)
            done;
            base.(r) <- b;
            Row.add placed row b)
    order;
  {
    base = ints_of_prefix base nrows;
    check = ints_of_prefix !check !top;
    value = ints_of_prefix !value !top;
  }

let get (a : ints) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

let cell p ~row ~col =
  let b = get p.base row in
  let i = b + col in
  if i >= 0 && i < Bigarray.Array1.dim p.check && get p.check i = b then
    get p.value i
  else 0

let prod_precedence prec_of_terminal (g : Cfg.t) prod =
  let p = g.productions.(prod) in
  Array.fold_left
    (fun acc sym ->
      match sym with Cfg.T t -> ( match prec_of_terminal t with Some _ as r -> r | None -> acc)
      | Cfg.NT _ -> acc)
    None p.rhs

let packed_bytes p =
  Bigarray.Array1.(size_in_bytes p.base + size_in_bytes p.check + size_in_bytes p.value)

let table_bytes t = packed_bytes t.actions + packed_bytes t.gotos

let build ?(precedence = []) g =
  let tr = Lg_support.Trace.ambient () in
  Lg_support.Trace.span tr ~cat:"tables" "lalr.build" @@ fun () ->
  let lr0 =
    Lg_support.Trace.span tr ~cat:"tables" "lalr.lr0" (fun () -> Lr0.build g)
  in
  let la =
    Lg_support.Trace.span tr ~cat:"tables" "lalr.lookahead" (fun () ->
        Lookahead.compute lr0)
  in
  Lg_support.Trace.span tr ~cat:"tables" "lalr.fill" @@ fun () ->
  let nterms = Cfg.terminal_count g in
  let nstates = Lr0.state_count lr0 in
  let prec_tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, level, assoc) ->
      match Cfg.find_terminal g name with
      | Some ti -> Hashtbl.replace prec_tbl ti (level, assoc)
      | None -> invalid_arg (Printf.sprintf "Tables.build: unknown terminal %S" name))
    precedence;
  let prec_of_terminal t = Hashtbl.find_opt prec_tbl t in
  let conflicts = ref [] in
  (* One state's actions, cleared after each row is encoded. *)
  let row = Array.make nterms Error in
  let interleave cells =
    let a = Array.make (2 * List.length cells) 0 in
    List.iteri
      (fun k (col, code) ->
        a.(2 * k) <- col;
        a.((2 * k) + 1) <- code)
      cells;
    a
  in
  let goto_row s =
    (Lr0.state lr0 s).Lr0.transitions
    |> List.filter_map (fun (sym, dst) ->
           match sym with Cfg.NT nt -> Some (nt, dst + 1) | Cfg.T _ -> None)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> interleave
  in
  let action_row s =
    (* Shifts. *)
    List.iter
      (fun (sym, dst) ->
        match sym with Cfg.T t -> row.(t) <- Shift dst | Cfg.NT _ -> ())
      (Lr0.state lr0 s).Lr0.transitions;
    (* Reductions on their lookaheads. *)
    List.iter
      (fun prod ->
        List.iter
          (fun t ->
            let reduce_action =
              if prod = Lr0.augmented_prod lr0 then Accept else Reduce prod
            in
            match row.(t) with
            | Error -> row.(t) <- reduce_action
            | Shift dst -> (
                (* shift/reduce: try operator precedence. *)
                let rp =
                  if prod = Lr0.augmented_prod lr0 then None
                  else
                    Option.map fst (prod_precedence prec_of_terminal g prod)
                in
                let tp = prec_of_terminal t in
                match (rp, tp) with
                | Some rl, Some (tl, assoc) ->
                    let chosen =
                      if rl > tl then reduce_action
                      else if rl < tl then Shift dst
                      else
                        match assoc with
                        | Left -> reduce_action
                        | Right -> Shift dst
                        | Nonassoc -> Error
                    in
                    row.(t) <- chosen;
                    conflicts :=
                      {
                        state = s;
                        terminal = t;
                        shift = Some dst;
                        reduces = [ prod ];
                        chosen;
                        by_precedence = true;
                      }
                      :: !conflicts
                | _ ->
                    (* Unresolved: default to shift, like yacc. *)
                    conflicts :=
                      {
                        state = s;
                        terminal = t;
                        shift = Some dst;
                        reduces = [ prod ];
                        chosen = Shift dst;
                        by_precedence = false;
                      }
                      :: !conflicts)
            | Reduce other ->
                (* reduce/reduce: lower production index wins. *)
                let winner = min prod other and loser = max prod other in
                row.(t) <- Reduce winner;
                conflicts :=
                  {
                    state = s;
                    terminal = t;
                    shift = None;
                    reduces = [ winner; loser ];
                    chosen = Reduce winner;
                    by_precedence = false;
                  }
                  :: !conflicts
            | Accept ->
                conflicts :=
                  {
                    state = s;
                    terminal = t;
                    shift = None;
                    reduces = [ prod ];
                    chosen = Accept;
                    by_precedence = false;
                  }
                  :: !conflicts)
          (Lookahead.lookaheads la ~state:s ~prod))
      (Lr0.reductions lr0 s);
    let cells = ref [] in
    for t = nterms - 1 downto 0 do
      (match row.(t) with
      | Error -> ()
      | Shift dst -> cells := (t, dst + 1) :: !cells
      | Reduce p -> cells := (t, -(p + 1)) :: !cells
      | Accept -> cells := (t, -(Lr0.augmented_prod lr0 + 1)) :: !cells);
      row.(t) <- Error
    done;
    interleave !cells
  in
  let actions = pack ~width:nterms (Array.init nstates action_row) in
  let t =
    {
      grammar = g;
      nstates;
      nterms;
      actions;
      gotos = pack ~width:(Cfg.nonterminal_count g) (Array.init nstates goto_row);
      conflicts = List.rev !conflicts;
    }
  in
  Lg_support.Trace.add_args tr
    [
      ("states", Lg_support.Trace.Int nstates);
      ("conflicts", Lg_support.Trace.Int (List.length !conflicts));
    ];
  let m = Lg_support.Metrics.ambient () in
  if Lg_support.Metrics.enabled m then begin
    Lg_support.Metrics.incr m "lalr.builds";
    Lg_support.Metrics.set_int m "lalr.states" nstates;
    Lg_support.Metrics.set_int m "lalr.conflicts" (List.length !conflicts);
    Lg_support.Metrics.set_int m "lalr.table_bytes" (table_bytes t)
  end;
  t

let grammar t = t.grammar

let action t ~state ~terminal =
  let code = cell t.actions ~row:state ~col:terminal in
  if code > 0 then Shift (code - 1)
  else if code = 0 then Error
  else
    let p = -code - 1 in
    if p = Cfg.production_count t.grammar then Accept else Reduce p

let goto_nt t ~state ~nt =
  match cell t.gotos ~row:state ~col:nt with 0 -> None | code -> Some (code - 1)

let start_state _ = 0
let conflicts t = t.conflicts
let unresolved_conflicts t = List.filter (fun c -> not c.by_precedence) t.conflicts

let expected_terminals t ~state =
  List.filter
    (fun terminal -> cell t.actions ~row:state ~col:terminal <> 0)
    (List.init t.nterms Fun.id)

let state_count t = t.nstates

let pp_conflict t ppf c =
  let kind = match c.shift with Some _ -> "shift/reduce" | None -> "reduce/reduce" in
  Format.fprintf ppf "%s conflict in state %d on %s (%s)" kind c.state
    (Cfg.terminal_name t.grammar c.terminal)
    (if c.by_precedence then "resolved by precedence" else "unresolved")
