(* Tests for the LALR table builder and the table-driven LR driver. *)
open Lg_grammar
open Lg_lalr

let expr_grammar () =
  Cfg.make
    ~terminals:[ "+"; "*"; "("; ")"; "id" ]
    ~nonterminals:[ "E"; "T"; "F" ]
    ~start:"E"
    [
      ("E", [ "E"; "+"; "T" ], "Add");
      ("E", [ "T" ], "ET");
      ("T", [ "T"; "*"; "F" ], "Mul");
      ("T", [ "F" ], "TF");
      ("F", [ "("; "E"; ")" ], "Paren");
      ("F", [ "id" ], "Id");
    ]

(* LALR(1) but not SLR(1): the classic grammar (dragon book 4.22 family).
   S -> L = R | R ; L -> * R | id ; R -> L *)
let lalr_not_slr () =
  Cfg.make
    ~terminals:[ "="; "*"; "id" ]
    ~nonterminals:[ "S"; "L"; "R" ]
    ~start:"S"
    [
      ("S", [ "L"; "="; "R" ], "");
      ("S", [ "R" ], "");
      ("L", [ "*"; "R" ], "");
      ("L", [ "id" ], "");
      ("R", [ "L" ], "");
    ]

(* Not LALR(1): requires full LR(1) (reduce/reduce under LALR merging).
   S -> a E c | a F d | b F c | b E d ; E -> e ; F -> e *)
let not_lalr () =
  Cfg.make
    ~terminals:[ "a"; "b"; "c"; "d"; "e" ]
    ~nonterminals:[ "S"; "E"; "F" ]
    ~start:"S"
    [
      ("S", [ "a"; "E"; "c" ], "");
      ("S", [ "a"; "F"; "d" ], "");
      ("S", [ "b"; "F"; "c" ], "");
      ("S", [ "b"; "E"; "d" ], "");
      ("E", [ "e" ], "");
      ("F", [ "e" ], "");
    ]

(* Dangling else. *)
let dangling_else () =
  Cfg.make
    ~terminals:[ "if"; "then"; "else"; "expr"; "other" ]
    ~nonterminals:[ "S" ]
    ~start:"S"
    [
      ("S", [ "if"; "expr"; "then"; "S"; "else"; "S" ], "IfElse");
      ("S", [ "if"; "expr"; "then"; "S" ], "If");
      ("S", [ "other" ], "Other");
    ]

let terminal g name = Option.get (Cfg.find_terminal g name)

let tokens_of g names = List.map (fun n -> (terminal g n, n)) names
let token_seq g names = List.to_seq (tokens_of g names)

let test_expr_accepts () =
  let g = expr_grammar () in
  let t = Tables.build g in
  Alcotest.(check int) "no conflicts" 0 (List.length (Tables.conflicts t));
  List.iter
    (fun (input, expect) ->
      let ok =
        match Driver.right_parse t (token_seq g input) with
        | Ok _ -> true
        | Error _ -> false
      in
      Alcotest.(check bool) (String.concat " " input) expect ok)
    [
      ([ "id" ], true);
      ([ "id"; "+"; "id" ], true);
      ([ "id"; "+"; "id"; "*"; "id" ], true);
      ([ "("; "id"; "+"; "id"; ")"; "*"; "id" ], true);
      ([ "id"; "+" ], false);
      ([ "("; "id" ], false);
      ([ ")"; "id" ], false);
      ([], false);
    ]

let test_expr_right_parse () =
  let g = expr_grammar () in
  let t = Tables.build g in
  (* id + id * id : right parse is
     F->id, T->F, E->T, F->id, T->F, F->id, T->T*F, E->E+T *)
  match Driver.right_parse t (token_seq g [ "id"; "+"; "id"; "*"; "id" ]) with
  | Ok parse ->
      let tags = List.map (fun pi -> g.Cfg.productions.(pi).Cfg.tag) parse in
      Alcotest.(check (list string)) "right parse order"
        [ "Id"; "TF"; "ET"; "Id"; "TF"; "Id"; "Mul"; "Add" ]
        tags
  | Error _ -> Alcotest.fail "parse failed"

let test_semantic_values () =
  let g = expr_grammar () in
  let t = Tables.build g in
  (* Evaluate arithmetic with id=7. *)
  let shift term _ = if term = terminal g "id" then 7 else 0 in
  let reduce pi vs =
    match (g.Cfg.productions.(pi).Cfg.tag, vs) with
    | "Add", [ a; _; b ] -> a + b
    | "Mul", [ a; _; b ] -> a * b
    | "Paren", [ _; e; _ ] -> e
    | ("ET" | "TF"), [ v ] -> v
    | "Id", [ v ] -> v
    | _ -> Alcotest.fail "bad reduction shape"
  in
  match Driver.parse t ~shift ~reduce (token_seq g [ "id"; "+"; "id"; "*"; "id" ]) with
  | Ok v -> Alcotest.(check int) "7+7*7" 56 v
  | Error _ -> Alcotest.fail "parse failed"

let test_lalr_not_slr_builds_cleanly () =
  let g = lalr_not_slr () in
  let t = Tables.build g in
  Alcotest.(check int) "LALR resolves what SLR cannot" 0
    (List.length (Tables.conflicts t));
  List.iter
    (fun (input, expect) ->
      let ok =
        match Driver.right_parse t (token_seq g input) with
        | Ok _ -> true
        | Error _ -> false
      in
      Alcotest.(check bool) (String.concat " " input) expect ok)
    [
      ([ "id"; "="; "id" ], true);
      ([ "*"; "id"; "="; "*"; "*"; "id" ], true);
      ([ "id" ], true);
      ([ "="; "id" ], false);
    ]

let test_not_lalr_reports_conflict () =
  let g = not_lalr () in
  let t = Tables.build g in
  Alcotest.(check bool) "reduce/reduce conflict detected" true
    (List.exists (fun c -> c.Tables.shift = None) (Tables.unresolved_conflicts t))

let test_dangling_else_default_shift () =
  let g = dangling_else () in
  let t = Tables.build g in
  let unresolved = Tables.unresolved_conflicts t in
  Alcotest.(check int) "one shift/reduce conflict" 1 (List.length unresolved);
  (* Default resolution (shift) binds the else to the inner if. *)
  match
    Driver.right_parse t
      (token_seq g
         [ "if"; "expr"; "then"; "if"; "expr"; "then"; "other"; "else"; "other" ])
  with
  | Ok parse ->
      let tags = List.map (fun pi -> g.Cfg.productions.(pi).Cfg.tag) parse in
      Alcotest.(check (list string)) "else binds inner"
        [ "Other"; "Other"; "IfElse"; "If" ]
        tags
  | Error _ -> Alcotest.fail "parse failed"

let test_precedence_resolution () =
  (* Ambiguous expression grammar fixed by precedence declarations. *)
  let g =
    Cfg.make
      ~terminals:[ "+"; "*"; "id" ]
      ~nonterminals:[ "E" ]
      ~start:"E"
      [
        ("E", [ "E"; "+"; "E" ], "Add");
        ("E", [ "E"; "*"; "E" ], "Mul");
        ("E", [ "id" ], "Id");
      ]
  in
  let t =
    Tables.build ~precedence:[ ("+", 1, Tables.Left); ("*", 2, Tables.Left) ] g
  in
  Alcotest.(check int) "all conflicts resolved by precedence" 0
    (List.length (Tables.unresolved_conflicts t));
  let shift term _ = if term = terminal g "id" then 3 else 0 in
  let reduce pi vs =
    match (g.Cfg.productions.(pi).Cfg.tag, vs) with
    | "Add", [ a; _; b ] -> a + b
    | "Mul", [ a; _; b ] -> a * b
    | "Id", [ v ] -> v
    | _ -> Alcotest.fail "bad reduction"
  in
  (match Driver.parse t ~shift ~reduce (token_seq g [ "id"; "+"; "id"; "*"; "id" ]) with
  | Ok v -> Alcotest.(check int) "precedence: 3+3*3" 12 v
  | Error _ -> Alcotest.fail "parse failed");
  match Driver.parse t ~shift ~reduce (token_seq g [ "id"; "+"; "id"; "+"; "id" ]) with
  | Ok v -> Alcotest.(check int) "left assoc: (3+3)+3" 9 v
  | Error _ -> Alcotest.fail "parse failed"

let test_error_reporting () =
  let g = expr_grammar () in
  let t = Tables.build g in
  match Driver.right_parse t (token_seq g [ "id"; "+"; ")" ]) with
  | Ok _ -> Alcotest.fail "should not parse"
  | Error e ->
      Alcotest.(check int) "error at token 2" 2 e.Driver.at;
      let expected = List.map (Cfg.terminal_name g) e.Driver.expected in
      Alcotest.(check bool) "expects id" true (List.mem "id" expected);
      Alcotest.(check bool) "expects (" true (List.mem "(" expected);
      Alcotest.(check bool) "does not expect +" false (List.mem "+" expected)

let test_empty_rhs_grammar () =
  (* A grammar with epsilon productions parses correctly. *)
  let g =
    Cfg.make
      ~terminals:[ "a"; "b" ]
      ~nonterminals:[ "S"; "A" ]
      ~start:"S"
      [ ("S", [ "A"; "b" ], ""); ("A", [ "a" ], ""); ("A", [], "") ]
  in
  let t = Tables.build g in
  Alcotest.(check int) "no conflicts" 0 (List.length (Tables.conflicts t));
  Alcotest.(check bool) "b" true (Driver.accepts t [ terminal g "b" ]);
  Alcotest.(check bool) "ab" true
    (Driver.accepts t [ terminal g "a"; terminal g "b" ]);
  Alcotest.(check bool) "a" false (Driver.accepts t [ terminal g "a" ])

(* The driver streams its input: at the 5,000th shift of a 10,000-token
   sentence, every payload before the current lookahead is garbage and the
   next token has not been produced yet. *)
let test_driver_retains_no_consumed_token () =
  let g =
    Cfg.make ~terminals:[ "x" ] ~nonterminals:[ "L" ] ~start:"L"
      [ ("L", [ "L"; "x" ], "Snoc"); ("L", [ "x" ], "One") ]
  in
  let t = Tables.build g in
  let x = terminal g "x" in
  let n = 10_000 and probe = 5_000 in
  let boxes = Weak.create n in
  let input =
    Seq.init n (fun i ->
        let box = ref i in
        Weak.set boxes i (Some box);
        (x, box))
  in
  let shifts = ref 0 in
  let shift _ box =
    incr shifts;
    if !shifts = probe then begin
      Gc.full_major ();
      let retained =
        List.filter (Weak.check boxes) (List.init (probe - 1) Fun.id)
      in
      Alcotest.(check (list int)) "no consumed payload retained" [] retained;
      Alcotest.(check bool) "lookahead alive" true (Weak.check boxes (probe - 1));
      Alcotest.(check bool) "next token not produced" false
        (Weak.check boxes probe);
      ignore (Sys.opaque_identity box)
    end
  in
  match Driver.parse t ~shift ~reduce:(fun _ _ -> ()) input with
  | Ok () -> Alcotest.(check int) "every token shifted" n !shifts
  | Error _ -> Alcotest.fail "parse failed"

let test_diagnose_multiple_errors () =
  let g = expr_grammar () in
  let t = Tables.build g in
  (* "id + ) id ( id +" : several independent errors *)
  let errors =
    Driver.diagnose t (tokens_of g [ "id"; "+"; ")"; "id"; "("; "id"; "+" ])
  in
  Alcotest.(check bool) "more than one error found" true (List.length errors >= 2);
  (* positions are increasing *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> a.Driver.at <= b.Driver.at && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "positions increase" true (increasing errors)

let test_diagnose_clean_input () =
  let g = expr_grammar () in
  let t = Tables.build g in
  Alcotest.(check int) "no errors on valid input" 0
    (List.length (Driver.diagnose t (tokens_of g [ "id"; "+"; "id" ])))

let prop_diagnose_agrees_with_parse =
  QCheck.Test.make ~name:"diagnose = [] iff parse succeeds" ~count:200
    QCheck.(pair (int_bound 10000) (small_list (int_range 1 5)))
    (fun (seed, noise) ->
      let g = expr_grammar () in
      let a = Analysis.compute g in
      let t = Tables.build g in
      let st = Random.State.make [| seed |] in
      let rng bound = Random.State.int st bound in
      let sentence = Sentence_gen.sentence g a ~rng ~size:10 in
      (* maybe corrupt the sentence with noise tokens *)
      let corrupted =
        List.concat_map
          (fun tok -> if rng 6 = 0 then noise @ [ tok ] else [ tok ])
          sentence
      in
      let input = List.map (fun x -> (x, ())) corrupted in
      let parse_ok =
        match Driver.right_parse t (List.to_seq input) with Ok _ -> true | Error _ -> false
      in
      let diag_clean = Driver.diagnose t input = [] in
      parse_ok = diag_clean)

(* Property: random sentences from the grammar parse, and the driver's
   right-parse equals the generator's derivation order. *)
let prop_generated_sentences_parse =
  QCheck.Test.make ~name:"random sentences parse; right-parses agree" ~count:300
    QCheck.(pair (int_bound 10000) (int_bound 40))
    (fun (seed, size) ->
      let g = expr_grammar () in
      let a = Analysis.compute g in
      let t = Tables.build g in
      let st = Random.State.make [| seed |] in
      let rng bound = Random.State.int st bound in
      let sentence, derivation = Sentence_gen.derivation g a ~rng ~size in
      match Driver.right_parse t (List.to_seq (List.map (fun x -> (x, ())) sentence)) with
      | Ok parse -> parse = derivation
      | Error _ -> false)

(* Property: the expression grammar is unambiguous, so parsing a sentence
   twice is deterministic, and junk suffixes are rejected. *)
let prop_junk_rejected =
  QCheck.Test.make ~name:"sentence + junk token is rejected" ~count:200
    QCheck.(pair (int_bound 10000) (int_bound 20))
    (fun (seed, size) ->
      let g = expr_grammar () in
      let a = Analysis.compute g in
      let t = Tables.build g in
      let st = Random.State.make [| seed |] in
      let rng bound = Random.State.int st bound in
      let sentence = Sentence_gen.sentence g a ~rng ~size in
      let junk = sentence @ [ terminal g ")" ] in
      not (Driver.accepts t junk))

(* ---------- lookaheads = the Set-based reference ---------- *)

(* The lookahead pass as it was before it indexed transitions densely and
   held its sets as bitsets: hashed (state, nonterminal) pairs, integer
   sets, and nullable suffixes re-tested at every position. The dense
   reference tables below read it, so they do not depend on the code
   they check. *)
module Reference_lookahead = struct
  module Iset = Set.Make (Int)

  type t = {
    la : (int, Iset.t) Hashtbl.t;  (** key: state * nprods + prod *)
    nprods : int;
    nt_transitions : int;
  }

  (* The digraph algorithm of DeRemer and Pennello: given a relation [rel]
     (as successor lists) and initial sets [f0], compute the smallest F with
     F(x) = f0(x) U union of F(y) for x rel y, collapsing cycles. *)
  let digraph n rel f0 =
    let f = Array.copy f0 in
    let depth = Array.make n 0 in
    let stack = ref [] in
    let rec traverse x =
      stack := x :: !stack;
      let d = List.length !stack in
      depth.(x) <- d;
      List.iter
        (fun y ->
          if depth.(y) = 0 then traverse y;
          depth.(x) <- min depth.(x) depth.(y);
          f.(x) <- Iset.union f.(x) f.(y))
        rel.(x);
      if depth.(x) = d then begin
        let rec pop () =
          match !stack with
          | top :: rest ->
              depth.(top) <- max_int;
              f.(top) <- f.(x);
              stack := rest;
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
    let nprods = Cfg.production_count g + 1 (* augmented *) in
    (* Enumerate nonterminal transitions. *)
    let trans = ref [] and ntrans = ref 0 in
    let trans_index : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    for s = 0 to nstates - 1 do
      List.iter
        (fun (sym, _) ->
          match sym with
          | Cfg.NT a ->
              Hashtbl.replace trans_index (s, a) !ntrans;
              trans := (s, a) :: !trans;
              incr ntrans
          | Cfg.T _ -> ())
        (Lr0.state lr0 s).Lr0.transitions
    done;
    let nt_trans = Array.of_list (List.rev !trans) in
    let n = !ntrans in
    (* DR: terminals shiftable straight after the transition. *)
    let dr = Array.make n Iset.empty in
    Array.iteri
      (fun idx (p, a) ->
        match Lr0.goto lr0 p (Cfg.NT a) with
        | None -> assert false
        | Some r ->
            List.iter
              (fun (sym, _) ->
                match sym with
                | Cfg.T t -> dr.(idx) <- Iset.add t dr.(idx)
                | Cfg.NT _ -> ())
              (Lr0.state lr0 r).Lr0.transitions;
            (* The start transition also "reads" end-of-input. *)
            if p = Lr0.start_state lr0 && a = g.start then
              dr.(idx) <- Iset.add Cfg.eof dr.(idx))
      nt_trans;
    (* reads: (p,A) reads (r,C) iff r = goto(p,A) and C nullable in r. *)
    let reads = Array.make n [] in
    Array.iteri
      (fun idx (p, a) ->
        match Lr0.goto lr0 p (Cfg.NT a) with
        | None -> assert false
        | Some r ->
            List.iter
              (fun (sym, _) ->
                match sym with
                | Cfg.NT c when Analysis.nullable_nt analysis c -> (
                    match Hashtbl.find_opt trans_index (r, c) with
                    | Some j -> reads.(idx) <- j :: reads.(idx)
                    | None -> ())
                | Cfg.NT _ | Cfg.T _ -> ())
              (Lr0.state lr0 r).Lr0.transitions)
      nt_trans;
    let read_sets = digraph n reads dr in
    (* includes and lookback, computed by walking each production's RHS from
       each state carrying its LHS transition. *)
    let includes = Array.make n [] in
    let lookback : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
    Array.iteri
      (fun idx (p', b) ->
        List.iter
          (fun pi ->
            let rhs = g.productions.(pi).rhs in
            let len = Array.length rhs in
            let q = ref p' in
            for i = 0 to len - 1 do
              (match rhs.(i) with
              | Cfg.NT a when Analysis.nullable_seq analysis rhs ~from:(i + 1) -> (
                  match Hashtbl.find_opt trans_index (!q, a) with
                  | Some j -> includes.(j) <- idx :: includes.(j)
                  | None -> ())
              | Cfg.NT _ | Cfg.T _ -> ());
              match Lr0.goto lr0 !q rhs.(i) with
              | Some next -> q := next
              | None -> assert false
            done;
            (* !q is the state reached after the whole RHS: a reduction site. *)
            let key = (!q, pi) in
            let prev = Option.value ~default:[] (Hashtbl.find_opt lookback key) in
            Hashtbl.replace lookback key (idx :: prev))
          g.prods_of.(b))
      nt_trans;
    let follow_sets = digraph n includes read_sets in
    (* LA(q, prod) = union of Follow over lookback. *)
    let la = Hashtbl.create 128 in
    Hashtbl.iter
      (fun (q, pi) idxs ->
        let set =
          List.fold_left (fun acc j -> Iset.union acc follow_sets.(j)) Iset.empty idxs
        in
        Hashtbl.replace la ((q * nprods) + pi) set)
      lookback;
    (* The augmented production reduces (accepts) on end-of-input in the
       state reached by goto(start, S). *)
    (match Lr0.goto lr0 (Lr0.start_state lr0) (Cfg.NT g.start) with
    | Some accept_state ->
        Hashtbl.replace la
          ((accept_state * nprods) + Lr0.augmented_prod lr0)
          (Iset.singleton Cfg.eof)
    | None -> ());
    { la; nprods; nt_transitions = n }

  let lookaheads t ~state ~prod =
    match Hashtbl.find_opt t.la ((state * t.nprods) + prod) with
    | Some set -> Iset.elements set
    | None -> []
end

(* ---------- packed tables = dense reference ---------- *)

(* The dense matrices the packed tables replace, built straight from the
   LR(0) automaton and its lookaheads with the same resolution rules:
   operator precedence when both sides have one, else shift over reduce,
   the lower production on reduce/reduce, and accept kept. *)
let dense_reference ?(precedence = []) g =
  let lr0 = Lr0.build g in
  let la = Reference_lookahead.compute lr0 in
  let nstates = Lr0.state_count lr0 in
  let accept = Lr0.augmented_prod lr0 in
  let actions =
    Array.init nstates (fun _ -> Array.make (Cfg.terminal_count g) Tables.Error)
  in
  let gotos = Array.init nstates (fun _ -> Array.make (Cfg.nonterminal_count g) (-1)) in
  let prec t =
    List.find_map
      (fun (name, level, assoc) ->
        if Cfg.find_terminal g name = Some t then Some (level, assoc) else None)
      precedence
  in
  let prod_prec p =
    Array.fold_left
      (fun acc sym ->
        match sym with
        | Cfg.T t -> ( match prec t with Some (l, _) -> Some l | None -> acc)
        | Cfg.NT _ -> acc)
      None g.Cfg.productions.(p).Cfg.rhs
  in
  let conflicts = ref [] in
  for s = 0 to nstates - 1 do
    List.iter
      (fun (sym, dst) ->
        match sym with
        | Cfg.T t -> actions.(s).(t) <- Tables.Shift dst
        | Cfg.NT nt -> gotos.(s).(nt) <- dst)
      (Lr0.state lr0 s).Lr0.transitions;
    List.iter
      (fun prod ->
        List.iter
          (fun t ->
            let reduce = if prod = accept then Tables.Accept else Tables.Reduce prod in
            let record shift reduces chosen by_precedence =
              conflicts :=
                { Tables.state = s; terminal = t; shift; reduces; chosen; by_precedence }
                :: !conflicts
            in
            match actions.(s).(t) with
            | Tables.Error -> actions.(s).(t) <- reduce
            | Tables.Shift dst -> (
                match ((if prod = accept then None else prod_prec prod), prec t) with
                | Some rl, Some (tl, assoc) ->
                    let chosen =
                      if rl > tl then reduce
                      else if rl < tl then Tables.Shift dst
                      else
                        match assoc with
                        | Tables.Left -> reduce
                        | Tables.Right -> Tables.Shift dst
                        | Tables.Nonassoc -> Tables.Error
                    in
                    actions.(s).(t) <- chosen;
                    record (Some dst) [ prod ] chosen true
                | _ -> record (Some dst) [ prod ] (Tables.Shift dst) false)
            | Tables.Reduce other ->
                let winner = min prod other in
                actions.(s).(t) <- Tables.Reduce winner;
                record None [ winner; max prod other ] (Tables.Reduce winner) false
            | Tables.Accept -> record None [ prod ] Tables.Accept false)
          (Reference_lookahead.lookaheads la ~state:s ~prod))
      (Lr0.reductions lr0 s)
  done;
  (actions, gotos, List.rev !conflicts)

let check_against_dense ?precedence name g =
  let t = Tables.build ?precedence g in
  let actions, gotos, conflicts = dense_reference ?precedence g in
  let nstates = Array.length actions in
  Alcotest.(check int) (name ^ ": state count") nstates (Tables.state_count t);
  let bad = ref [] in
  for s = 0 to nstates - 1 do
    Array.iteri
      (fun terminal want ->
        if Tables.action t ~state:s ~terminal <> want then
          bad := Printf.sprintf "action(%d, %d)" s terminal :: !bad)
      actions.(s);
    Array.iteri
      (fun nt want ->
        let want = if want < 0 then None else Some want in
        if Tables.goto_nt t ~state:s ~nt <> want then
          bad := Printf.sprintf "goto(%d, %d)" s nt :: !bad)
      gotos.(s);
    let expected =
      List.filter
        (fun terminal -> actions.(s).(terminal) <> Tables.Error)
        (List.init (Array.length actions.(s)) Fun.id)
    in
    if Tables.expected_terminals t ~state:s <> expected then
      bad := Printf.sprintf "expected_terminals(%d)" s :: !bad
  done;
  Alcotest.(check (list string)) (name ^ ": every cell agrees") [] (List.rev !bad);
  Alcotest.(check bool) (name ^ ": same conflicts") true (Tables.conflicts t = conflicts);
  t

let cfg_of_ag ~file source =
  Linguist.Ir.to_cfg (Linguist.Driver.process_exn ~file source).Linguist.Driver.ir

let test_packed_small_grammars () =
  List.iter
    (fun (name, g) -> ignore (check_against_dense name g))
    [
      ("expr", expr_grammar ());
      ("lalr-not-slr", lalr_not_slr ());
      ("not-lalr", not_lalr ());
      ("dangling-else", dangling_else ());
    ];
  let ambiguous =
    Cfg.make ~terminals:[ "+"; "*"; "^"; "=" ; "id" ] ~nonterminals:[ "E" ] ~start:"E"
      [
        ("E", [ "E"; "+"; "E" ], "");
        ("E", [ "E"; "*"; "E" ], "");
        ("E", [ "E"; "^"; "E" ], "");
        ("E", [ "E"; "="; "E" ], "");
        ("E", [ "id" ], "");
      ]
  in
  ignore
    (check_against_dense "precedence" ambiguous
       ~precedence:
         [
           ("=", 1, Tables.Nonassoc);
           ("+", 2, Tables.Left);
           ("*", 3, Tables.Left);
           ("^", 4, Tables.Right);
         ])

let test_packed_ag_grammars () =
  ignore
    (check_against_dense "AG meta-grammar"
       (Tables.grammar (Lg_support.Once.force Linguist.Ag_grammar.tables).lalr));
  let dir = "../grammars" in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".ag")
  |> List.iter (fun f ->
         let source =
           In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
         in
         ignore (check_against_dense f (cfg_of_ag ~file:f source)));
  List.iter
    (fun (name, source) ->
      ignore (check_against_dense name (cfg_of_ag ~file:name source)))
    [
      ("desk_calc", Lg_languages.Desk_calc.ag_source);
      ("assembler", Lg_languages.Assembler.ag_source);
      ("knuth_binary", Lg_languages.Knuth_binary.ag_source);
      ("pascal", Lg_languages.Pascal_ag.ag_source);
      ("linguist", Lg_languages.Linguist_ag.ag_source);
    ]

let corpus_cfg profile ~seed =
  let open Lg_corpus.Corpus_gen in
  (build_exn (generate (config_of_profile profile) ~seed)).b_cfg

let test_packed_corpus_grammars () =
  List.iter
    (fun (name, profile, seed) ->
      ignore (check_against_dense name (corpus_cfg profile ~seed)))
    Lg_corpus.Corpus_gen.
      [
        ("small/1", Small, 1);
        ("small/2", Small, 2);
        ("medium/1", Medium, 1);
        ("large/1", Large, 1);
      ]

(* The xl grammar's tables: cell-for-cell equal to the dense ones, in a
   fraction of their size. *)
let test_packed_xl () =
  let t = check_against_dense "xl/1" (corpus_cfg Lg_corpus.Corpus_gen.Xl ~seed:1) in
  Alcotest.(check bool)
    (Printf.sprintf "xl tables take %d bytes, at most 3 MB" (Tables.table_bytes t))
    true
    (Tables.table_bytes t <= 3_000_000)

(* Nullable suffixes of every length: reads and includes edges through
   empty nonterminals. *)
let epsilon_grammar () =
  Cfg.make
    ~terminals:[ "a"; "b"; "c" ]
    ~nonterminals:[ "S"; "A"; "B"; "C" ]
    ~start:"S"
    [
      ("S", [ "A"; "B"; "c" ], "");
      ("S", [ "C"; "S"; "C" ], "");
      ("S", [ "a" ], "");
      ("A", [ "a" ], "");
      ("A", [], "");
      ("B", [ "b" ], "");
      ("B", [], "");
      ("C", [ "A"; "B" ], "");
    ]

(* Every reduction's lookahead set equals the reference's, and so does
   the nonterminal transition count. *)
let check_lookaheads name g =
  let lr0 = Lr0.build g in
  let la = Lookahead.compute lr0 and want = Reference_lookahead.compute lr0 in
  Alcotest.(check int) (name ^ ": nonterminal transitions")
    want.Reference_lookahead.nt_transitions (Lookahead.nt_transition_count la);
  let bad = ref [] in
  for state = 0 to Lr0.state_count lr0 - 1 do
    List.iter
      (fun prod ->
        if
          Lookahead.lookaheads la ~state ~prod
          <> Reference_lookahead.lookaheads want ~state ~prod
        then bad := Printf.sprintf "LA(%d, %d)" state prod :: !bad)
      (Lr0.reductions lr0 state)
  done;
  Alcotest.(check (list string)) (name ^ ": every lookahead set") [] !bad

let test_lookaheads_reference () =
  List.iter
    (fun (name, g) -> check_lookaheads name g)
    [
      ("expr", expr_grammar ());
      ("lalr-not-slr", lalr_not_slr ());
      ("not-lalr", not_lalr ());
      ("dangling-else", dangling_else ());
      ("epsilon", epsilon_grammar ());
    ];
  let dir = "../grammars" in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".ag")
  |> List.iter (fun f ->
         let source =
           In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
         in
         check_lookaheads f (cfg_of_ag ~file:f source));
  List.iter
    (fun (name, source) -> check_lookaheads name (cfg_of_ag ~file:name source))
    [
      ("desk_calc", Lg_languages.Desk_calc.ag_source);
      ("assembler", Lg_languages.Assembler.ag_source);
      ("knuth_binary", Lg_languages.Knuth_binary.ag_source);
      ("pascal", Lg_languages.Pascal_ag.ag_source);
      ("linguist", Lg_languages.Linguist_ag.ag_source);
    ];
  List.iter
    (fun (name, profile) ->
      List.iter
        (fun seed ->
          check_lookaheads
            (Printf.sprintf "%s/%d" name seed)
            (corpus_cfg profile ~seed))
        [ 1; 2; 3 ])
    Lg_corpus.Corpus_gen.
      [ ("small", Small); ("medium", Medium); ("large", Large); ("xl", Xl) ]

let () =
  Alcotest.run "lalr"
    [
      ( "tables",
        [
          Alcotest.test_case "expr accepts" `Quick test_expr_accepts;
          Alcotest.test_case "right parse order" `Quick test_expr_right_parse;
          Alcotest.test_case "semantic values" `Quick test_semantic_values;
          Alcotest.test_case "LALR > SLR" `Quick test_lalr_not_slr_builds_cleanly;
          Alcotest.test_case "non-LALR detected" `Quick test_not_lalr_reports_conflict;
          Alcotest.test_case "dangling else" `Quick test_dangling_else_default_shift;
          Alcotest.test_case "precedence" `Quick test_precedence_resolution;
          Alcotest.test_case "error reporting" `Quick test_error_reporting;
          Alcotest.test_case "epsilon productions" `Quick test_empty_rhs_grammar;
          Alcotest.test_case "no consumed token retained" `Quick
            test_driver_retains_no_consumed_token;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_generated_sentences_parse;
          QCheck_alcotest.to_alcotest prop_junk_rejected;
          QCheck_alcotest.to_alcotest prop_diagnose_agrees_with_parse;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "multiple errors" `Quick test_diagnose_multiple_errors;
          Alcotest.test_case "clean input" `Quick test_diagnose_clean_input;
        ] );
      ( "packed",
        [
          Alcotest.test_case "small grammars = dense" `Quick test_packed_small_grammars;
          Alcotest.test_case "AG grammars = dense" `Quick test_packed_ag_grammars;
          Alcotest.test_case "corpus grammars = dense" `Quick test_packed_corpus_grammars;
          Alcotest.test_case "xl = dense, at most 3 MB" `Quick test_packed_xl;
          Alcotest.test_case "lookaheads = Set-based reference" `Quick
            test_lookaheads_reference;
        ] );
    ]
