(* Coverage sweep: corners not reached by the main suites — the rest of the
   list-processing package, corrupt-file handling, engine error paths, the
   per-attribute subsumption policy, and the pretty-printers. *)
open Lg_support

let check_value = Fixtures.check_value
let v n = Value.Int n

(* ----- remaining list-processing functions ----- *)

let test_set_algebra () =
  let s12 = Value.set_of_list [ v 1; v 2 ] in
  let s23 = Value.set_of_list [ v 2; v 3 ] in
  Alcotest.check check_value "intersect" (Value.set_of_list [ v 2 ])
    (Value.apply "Intersect" [ s12; s23 ]);
  Alcotest.check check_value "setminus" (Value.set_of_list [ v 1 ])
    (Value.apply "SetMinus" [ s12; s23 ]);
  Alcotest.check check_value "sizeof set" (v 2) (Value.apply "SizeOf" [ s12 ]);
  Alcotest.check check_value "sizeof bottom" (v 0)
    (Value.apply "SizeOf" [ Value.Bottom ])

let test_sequences () =
  let l = Value.List [ v 1; v 2; v 3 ] in
  Alcotest.check check_value "append"
    (Value.List [ v 1; v 2; v 3; v 9 ])
    (Value.apply "Append" [ l; Value.List [ v 9 ] ]);
  Alcotest.check check_value "reverse" (Value.List [ v 3; v 2; v 1 ])
    (Value.apply "Reverse" [ l ]);
  Alcotest.check check_value "lengthof" (v 3) (Value.apply "LengthOf" [ l ]);
  Alcotest.check check_value "head" (v 1) (Value.apply "Head" [ l ]);
  Alcotest.check check_value "tail" (Value.List [ v 2; v 3 ])
    (Value.apply "Tail" [ l ]);
  Alcotest.check check_value "head of empty" Value.Bottom
    (Value.apply "Head" [ Value.List [] ]);
  Alcotest.check check_value "pair" (Value.List [ v 1; v 2 ])
    (Value.apply "Pair" [ v 1; v 2 ]);
  Alcotest.check check_value "first" (v 1)
    (Value.apply "First" [ Value.List [ v 1; v 2 ] ]);
  Alcotest.check check_value "second" (v 2)
    (Value.apply "Second" [ Value.List [ v 1; v 2 ] ]);
  Alcotest.check check_value "cons2"
    (Value.List [ Value.List [ v 1; v 2 ]; v 9 ])
    (Value.apply "Cons2" [ v 1; v 2; Value.List [ v 9 ] ]);
  Alcotest.check check_value "cons3"
    (Value.List [ Value.List [ v 1; v 2; v 3 ] ])
    (Value.apply "Cons3" [ v 1; v 2; v 3; Value.List [] ])

let test_arith_helpers () =
  Alcotest.check check_value "pow2" (v 32) (Value.apply "Pow2" [ v 5 ]);
  Alcotest.check check_value "pow2 negative" (v 0) (Value.apply "Pow2" [ v (-1) ]);
  Alcotest.check check_value "mulpow2 up" (v 40) (Value.apply "MulPow2" [ v 5; v 3 ]);
  Alcotest.check check_value "mulpow2 down" (v 5)
    (Value.apply "MulPow2" [ v 40; v (-3) ]);
  Alcotest.check check_value "min" (v 2) (Value.apply "Min" [ v 5; v 2 ]);
  Alcotest.check check_value "abs" (v 7) (Value.apply "Abs" [ v (-7) ]);
  Alcotest.check check_value "incriftrue fires" (v 4)
    (Value.apply "IncrIfTrue" [ Value.Bool true; v 3 ]);
  Alcotest.check check_value "not" (Value.Bool false)
    (Value.apply "Not" [ Value.Bool true ])

let test_unionpf () =
  let pf keys = List.fold_left (fun pf (k, d) -> Value.pf_bind ~key:(Value.Str k) ~data:(v d) pf) (Value.Pf []) keys in
  let a = pf [ ("x", 1); ("y", 2) ] in
  let b = pf [ ("y", 20); ("z", 3) ] in
  let u = Value.apply "UnionPF" [ a; b ] in
  Alcotest.check check_value "left biased" (v 2)
    (Value.pf_eval u (Value.Str "y"));
  Alcotest.check check_value "right side kept" (v 3)
    (Value.pf_eval u (Value.Str "z"))

let test_wrong_arity_is_uninterpreted () =
  (* standard functions applied at the wrong arity degrade to terms *)
  match Value.apply "Union" [ v 1 ] with
  | Value.Term ("union", [ Value.Int 1 ]) -> ()
  | w -> Alcotest.failf "unexpected %a" Value.pp w

(* ----- corrupt streams ----- *)

let test_value_decode_corruption () =
  List.iter
    (fun s ->
      match Value.decode s 0 with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "decode should fail on %S" s)
    [ ""; "\xff"; "\x03\x08ab"; "\x05\x03\x01"; "\x08\x06a" ]

let test_node_decode_corruption () =
  match Lg_apt.Node.decode "\x01\x02\x03" with
  | exception Lg_apt.Apt_error.Error (Lg_apt.Apt_error.Corrupt_record _) -> ()
  | _ -> Alcotest.fail "node decode should fail with a typed error"

(* ----- engine error paths ----- *)

let test_engine_rejects_mismatched_record_layout () =
  (* A tree whose leaf carries the wrong number of intrinsic slots. *)
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let plan = Linguist.Driver.plan_of_ir ir in
  let bad_leaf = Lg_apt.Tree.leaf ~sym:0 ~attrs:[||] (* LEAF declares V *) in
  let tree =
    Lg_apt.Tree.interior ~prod:0 ~sym:1
      ~children:
        [ Lg_apt.Tree.interior ~prod:2 ~sym:2 ~children:[ bad_leaf ] ]
  in
  match Linguist.Engine.run plan tree with
  | exception Linguist.Engine.Evaluation_error _ -> ()
  | _ -> Alcotest.fail "layout mismatch must be detected"

let test_leaf_attr_values_rejects_unknown () =
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  match Linguist.Engine.leaf_attr_values ir ~sym:0 [ ("NOPE", v 1) ] with
  | exception Linguist.Engine.Evaluation_error _ -> ()
  | _ -> Alcotest.fail "unknown intrinsic must be rejected"

(* ----- the paper's per-attribute policy end to end ----- *)

let test_per_attribute_policy_differential () =
  let ir = Fixtures.ir_of_source Lg_languages.Desk_calc.ag_source in
  let pr = Linguist.Pass_assign.compute_exn ir in
  let dead = Linguist.Dead.analyze ir pr in
  let alloc =
    Linguist.Subsume.analyze ~policy:Linguist.Subsume.Per_attribute ir
  in
  let plan = Linguist.Schedule.build ir pr ~dead ~alloc in
  let st = Random.State.make [| 77 |] in
  let rng bound = Random.State.int st bound in
  let tree = Fixtures.random_tree ir ~rng ~size:40 in
  let engine, oracle = Fixtures.run_both plan tree in
  List.iter2
    (fun (n, v1) (_, v2) -> Alcotest.check check_value n v2 v1)
    engine.Linguist.Engine.outputs oracle.Linguist.Demand.outputs;
  Alcotest.(check bool) "traces agree" true
    (Fixtures.traces_agree plan engine.Linguist.Engine.trace
       oracle.Linguist.Demand.applications)

let test_policies_pick_nested_sets () =
  let ir = Fixtures.ir_of_source Lg_languages.Linguist_ag.ag_source in
  let local = Linguist.Subsume.analyze ~policy:Linguist.Subsume.Per_attribute ir in
  let global = Linguist.Subsume.analyze ~policy:Linguist.Subsume.Per_group ir in
  let count a =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a.Linguist.Subsume.static
  in
  Alcotest.(check bool) "global >= local" true (count global >= count local)

(* ----- pretty-printer smoke ----- *)

let test_pretty_printers () =
  let g =
    Lg_grammar.Cfg.make ~terminals:[ "a" ] ~nonterminals:[ "S" ] ~start:"S"
      [ ("S", [ "a" ], "tag") ]
  in
  Alcotest.(check bool) "Cfg.pp" true
    (String.length (Format.asprintf "%a" Lg_grammar.Cfg.pp g) > 0);
  let lr0 = Lg_lalr.Lr0.build g in
  Alcotest.(check bool) "Lr0.pp_state" true
    (String.length
       (Format.asprintf "%a" (Lg_lalr.Lr0.pp_state lr0) (Lg_lalr.Lr0.state lr0 0))
    > 0);
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let plan = Linguist.Driver.plan_of_ir ir in
  let pp0 = plan.Linguist.Plan.pass_plans.(0).Linguist.Plan.pl_prods.(0) in
  List.iter
    (fun action ->
      Alcotest.(check bool) "Plan.pp_action" true
        (String.length
           (Format.asprintf "%a"
              (Linguist.Plan.pp_action ir ir.Linguist.Ir.prods.(0))
              action)
        > 0))
    pp0.Linguist.Plan.pp_actions;
  (* an Eval prints its rule's expression, operators included:
     tree0.SUM = tree1.SUM + tree2.SUM *)
  let fork = ir.Linguist.Ir.prods.(1) in
  let sum =
    Option.get
      (Linguist.Ir.find_attr ir ~sym:fork.Linguist.Ir.p_lhs ~name:"SUM")
  in
  let sum_evals =
    Array.to_list plan.Linguist.Plan.pass_plans
    |> List.concat_map (fun (pl : Linguist.Plan.pass_plan) ->
           pl.Linguist.Plan.pl_prods.(1).Linguist.Plan.pp_actions)
    |> List.filter_map (function
         | Linguist.Plan.Eval { rule; _ } as action
           when ir.Linguist.Ir.rules.(rule).Linguist.Ir.r_targets
                = [ { Linguist.Ir.occ = Linguist.Ir.Lhs; attr = sum.Linguist.Ir.a_id } ]
           ->
             Some (Format.asprintf "%a" (Linguist.Plan.pp_action ir fork) action)
         | _ -> None)
  in
  Alcotest.(check (list string)) "Plan.pp_action prints +"
    [ "eval r4: tree$lhs[0] := (tree$1[0] + tree$2[0])" ]
    sum_evals;
  Alcotest.(check bool) "Circularity.pp_verdict" true
    (String.length
       (Format.asprintf "%a"
          (Linguist.Circularity.pp_verdict ir)
          (Linguist.Circularity.analyze ir))
    > 0)

(* ----- check warnings ----- *)

let test_limbless_semantics_warns () =
  let diag = Diag.create () in
  let src =
    "grammar X; root a; nonterminals a has syn P : t; end productions a ::= : a.P = 1; end"
  in
  (match Linguist.Ag_parse.parse ~file:"<t>" ~diag src with
  | Some ast -> ignore (Linguist.Check.check ~diag ast)
  | None -> Alcotest.fail "should parse");
  Alcotest.(check bool) "warning issued" true
    (List.exists
       (fun (d : Diag.t) -> d.severity = Diag.Warning)
       (Diag.to_list diag))

let test_unreachable_warning () =
  let diag = Diag.create () in
  let src =
    "grammar X; root a; nonterminals a; b; end productions a ::= ; b ::= ; end"
  in
  (match Linguist.Ag_parse.parse ~file:"<t>" ~diag src with
  | Some ast -> ignore (Linguist.Check.check ~diag ast)
  | None -> Alcotest.fail "should parse");
  Alcotest.(check bool) "unreachable warning" true
    (List.exists
       (fun (d : Diag.t) ->
         Fixtures.contains_substring ~needle:"unreachable" d.message)
       (Diag.to_list diag))

let () =
  Alcotest.run "misc"
    [
      ( "values",
        [
          Alcotest.test_case "set algebra" `Quick test_set_algebra;
          Alcotest.test_case "sequences" `Quick test_sequences;
          Alcotest.test_case "arith helpers" `Quick test_arith_helpers;
          Alcotest.test_case "unionpf" `Quick test_unionpf;
          Alcotest.test_case "wrong arity" `Quick test_wrong_arity_is_uninterpreted;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "value decode" `Quick test_value_decode_corruption;
          Alcotest.test_case "node decode" `Quick test_node_decode_corruption;
        ] );
      ( "engine errors",
        [
          Alcotest.test_case "layout mismatch" `Quick
            test_engine_rejects_mismatched_record_layout;
          Alcotest.test_case "unknown intrinsic" `Quick
            test_leaf_attr_values_rejects_unknown;
        ] );
      ( "policies",
        [
          Alcotest.test_case "per-attribute differential" `Quick
            test_per_attribute_policy_differential;
          Alcotest.test_case "nested static sets" `Quick
            test_policies_pick_nested_sets;
        ] );
      ( "printers",
        [ Alcotest.test_case "smoke" `Quick test_pretty_printers ] );
      ( "warnings",
        [
          Alcotest.test_case "limbless production" `Quick
            test_limbless_semantics_warns;
          Alcotest.test_case "unreachable nonterminal" `Quick
            test_unreachable_warning;
        ] );
    ]
