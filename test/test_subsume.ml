(* Tests for static subsumption: allocation decisions, the save/restore
   protocol (the paper's §III ListProd example), clobber handling, and
   plan-level guarantees. All semantic agreement is re-checked against the
   oracle. *)
open Linguist
open Lg_support

let alloc_of src =
  let ir = Fixtures.ir_of_source src in
  (ir, fst (Pass_assign.compute_exn ir), Subsume.analyze ir)

let attr_id ir sym attr =
  let sym_id =
    Array.to_list ir.Ir.symbols
    |> List.find (fun (s : Ir.symbol) -> String.equal s.Ir.s_name sym)
    |> fun s -> s.Ir.s_id
  in
  (Option.get (Ir.find_attr ir ~sym:sym_id ~name:attr)).Ir.a_id

(* The paper's §III example, adapted to our surface syntax:
     S0 ::= X S1 :
       S1.A = S0.A, X.A = S0.A          (copy-rules, subsumable)
       S0.DEFS = S1.DEFS                (copy, subsumable)
       S1.PRE = UnionSetof(S0.PRE, X.OBJ)  (non-copy def of static inh)
       S0.POST = IncrIfTrue(IsIn(X.A, S1.PRE), S1.POST)
   with a right-to-left pass, exactly as in the paper's ListProdPPi. *)
let listprod_grammar =
  {|
grammar ListProd;
root top;
strategy bottom_up;
terminals
  T has intrinsic OBJ : int;
end
nonterminals
  top has syn RESULT : int;
  s has inh A : int, inh PRE : set, syn POST : int, syn DEFS : set;
  x has inh A : int, syn OBJ : int;
end
limbs
  TopLimb; ListLimb; List2Limb; NilLimb; XLimb;
end
productions
  # SizeOf(s.DEFS) forces A into pass 2 together with PRE and POST, so the
  # whole example runs in one pass as in the paper's ListProdPPi.
  top ::= s -> TopLimb :
    s.A = 7 + SizeOf(s.DEFS),
    s.PRE = EmptySet,
    top.RESULT = s.POST;

  s0 ::= x s1 -> ListLimb :
    s1.A = s0.A,
    x.A = s0.A,
    s0.DEFS = s1.DEFS,
    s1.PRE = UnionSetof(x.OBJ, s0.PRE),
    s0.POST = IncrIfTrue(IsIn(x.A, s1.PRE), s1.POST);

  # A second list shape: two elements at once. The extra subsumable copies
  # of A tip the cost model toward allocating A statically.
  s0 ::= x0 x1 s1 -> List2Limb :
    s1.A = s0.A,
    x0.A = s0.A,
    x1.A = s0.A,
    s0.DEFS = s1.DEFS,
    s1.PRE = UnionSetof(x0.OBJ, UnionSetof(x1.OBJ, s0.PRE)),
    s0.POST = IncrIfTrue(IsIn(x0.A, s1.PRE), s1.POST);

  s ::= T -> NilLimb :
    s.POST = 0,
    s.DEFS = EmptySet;

  x ::= T -> XLimb :
    x.OBJ = T.OBJ;
end
|}

let test_listprod_allocation () =
  let ir, _, alloc = alloc_of listprod_grammar in
  (* A is copied twice per list production with zero non-copy defs beyond
     the two seeds -> static; PRE has a non-copy def per production but is
     also... the cost model decides; assert A at least. *)
  Alcotest.(check bool) "s.A static" true alloc.Subsume.static.(attr_id ir "s" "A");
  Alcotest.(check bool) "x.A static (same group)" true
    alloc.Subsume.static.(attr_id ir "x" "A");
  Alcotest.(check int) "A attrs share a global"
    alloc.Subsume.global_of.(attr_id ir "s" "A")
    alloc.Subsume.global_of.(attr_id ir "x" "A")

let test_listprod_save_restore_emitted () =
  let ir = Fixtures.ir_of_source listprod_grammar in
  let plan = Driver.plan_of_ir ir in
  let pr = plan.Plan.passes in
  let a_pass = pr.Pass_assign.passes.(attr_id ir "s" "A") in
  let plan_of tag =
    let prod =
      Array.to_list ir.Ir.prods
      |> List.find (fun (p : Ir.production) -> String.equal p.Ir.p_tag tag)
    in
    plan.Plan.pass_plans.(a_pass - 1).Plan.pl_prods.(prod.Ir.p_id)
  in
  (* The list productions define A only through subsumed copies. *)
  Alcotest.(check bool) "copies subsumed in ListLimb" true
    (List.length (plan_of "ListLimb").Plan.pp_subsumed_rules > 0);
  (* The top production redefines the static A with a real expression, so
     the child visit must be bracketed with save / set / restore. *)
  let top_actions = (plan_of "TopLimb").Plan.pp_actions in
  let has pred = Array.exists pred top_actions in
  Alcotest.(check bool) "Save emitted in TopLimb" true
    (has (function Plan.Save _ -> true | _ -> false));
  Alcotest.(check bool) "Set_global emitted in TopLimb" true
    (has (function Plan.Set_global _ -> true | _ -> false));
  Alcotest.(check bool) "Restore emitted in TopLimb" true
    (has (function Plan.Restore _ -> true | _ -> false))

let run_list ir plan objs =
  (* Build the list tree for objs = [o1; ...; on]. *)
  let find_prod tag =
    Array.to_list ir.Ir.prods
    |> List.find (fun (p : Ir.production) -> String.equal p.Ir.p_tag tag)
  in
  let t_sym =
    (Array.to_list ir.Ir.symbols
    |> List.find (fun (s : Ir.symbol) -> s.Ir.s_name = "T"))
      .Ir.s_id
  in
  let leaf v = Lg_apt.Tree.leaf ~sym:t_sym ~attrs:[| Value.Int v |] in
  let x_p = find_prod "XLimb" and nil_p = find_prod "NilLimb" in
  let list_p = find_prod "ListLimb" and top_p = find_prod "TopLimb" in
  let x v = Lg_apt.Tree.interior ~prod:x_p.Ir.p_id ~sym:x_p.Ir.p_lhs ~children:[ leaf v ] in
  let rec build = function
    | [] -> Lg_apt.Tree.interior ~prod:nil_p.Ir.p_id ~sym:nil_p.Ir.p_lhs ~children:[ leaf 0 ]
    | v :: rest ->
        Lg_apt.Tree.interior ~prod:list_p.Ir.p_id ~sym:list_p.Ir.p_lhs
          ~children:[ x v; build rest ]
  in
  let tree =
    Lg_apt.Tree.interior ~prod:top_p.Ir.p_id ~sym:top_p.Ir.p_lhs
      ~children:[ build objs ]
  in
  let engine, oracle, applications = Fixtures.run_both plan tree in
  (engine, oracle, applications, tree)

let test_listprod_semantics () =
  let ir = Fixtures.ir_of_source listprod_grammar in
  let plan = Driver.plan_of_ir ir in
  (* A = 7 everywhere; POST counts elements x whose A (=7) is in PRE, where
     PRE at element k is {objs before k} union {}. IsIn(7, PRE) counts
     elements preceded by an x with OBJ = 7. *)
  List.iter
    (fun objs ->
      let engine, oracle, applications, _ = run_list ir plan objs in
      List.iter2
        (fun (n, v1) (_, v2) ->
          Alcotest.check Fixtures.check_value
            (Printf.sprintf "[%s] %s"
               (String.concat ";" (List.map string_of_int objs))
               n)
            v2 v1)
        engine.Engine.outputs oracle.Demand.outputs;
      Alcotest.(check bool) "traces agree" true
        (Fixtures.traces_agree plan engine.Engine.trace applications))
    [ []; [ 7 ]; [ 1; 7; 2 ]; [ 7; 7; 7 ]; [ 1; 2; 3; 4 ]; [ 7; 1; 7; 1; 7 ] ]

(* Same-name synthesized attributes on both children: the LHS copy must NOT
   be subsumed blindly, because the later-visited sibling clobbers the
   global. The scheduler must capture or emit an explicit set. *)
let clobber_grammar =
  {|
grammar Clobber;
root top;
strategy bottom_up;
terminals K has intrinsic V : int; end
nonterminals
  top has syn RESULT : int;
  a has syn OUT : int;
  b has syn OUT : int;
end
limbs TopLimb; ALimb; BLimb; end
productions
  # In the right-to-left pass 1, b is visited first, then a; the copy
  # top.RESULT-feeding a.OUT must survive b's later clobber of G_OUT.
  top ::= a b -> TopLimb :
    top.RESULT = a.OUT + b.OUT;
  a ::= K -> ALimb :
    a.OUT = K.V + 100;
  b ::= K -> BLimb :
    b.OUT = K.V + 200;
end
|}

let clobber_copy_grammar =
  {|
grammar ClobberCopy;
root top;
strategy bottom_up;
terminals K has intrinsic V : int; end
nonterminals
  top has syn OUT : int;
  a has syn OUT : int;
  b has syn OUT : int;
end
limbs TopLimb; ALimb; BLimb; end
productions
  # top.OUT = a.OUT is a same-name copy, but in the R2L pass b is visited
  # after a, so the global holds b.OUT by procedure end.
  top ::= a b -> TopLimb :
    top.OUT = a.OUT;
  a ::= K -> ALimb :
    a.OUT = K.V + 100;
  b ::= K -> BLimb :
    b.OUT = K.V + 200;
end
|}

let run_pair src =
  let ir = Fixtures.ir_of_source src in
  let plan = Driver.plan_of_ir ir in
  let find_prod tag =
    Array.to_list ir.Ir.prods
    |> List.find (fun (p : Ir.production) -> String.equal p.Ir.p_tag tag)
  in
  let k_sym =
    (Array.to_list ir.Ir.symbols
    |> List.find (fun (s : Ir.symbol) -> s.Ir.s_name = "K"))
      .Ir.s_id
  in
  let leaf v = Lg_apt.Tree.leaf ~sym:k_sym ~attrs:[| Value.Int v |] in
  let a_p = find_prod "ALimb" and b_p = find_prod "BLimb" in
  let top_p = find_prod "TopLimb" in
  let tree =
    Lg_apt.Tree.interior ~prod:top_p.Ir.p_id ~sym:top_p.Ir.p_lhs
      ~children:
        [
          Lg_apt.Tree.interior ~prod:a_p.Ir.p_id ~sym:a_p.Ir.p_lhs
            ~children:[ leaf 1 ];
          Lg_apt.Tree.interior ~prod:b_p.Ir.p_id ~sym:b_p.Ir.p_lhs
            ~children:[ leaf 2 ];
        ]
  in
  let engine, oracle, _ = Fixtures.run_both plan tree in
  (plan, engine, oracle)

let test_clobber_uses () =
  let _, engine, oracle = run_pair clobber_grammar in
  Alcotest.check Fixtures.check_value "RESULT correct despite clobber"
    (Value.Int (1 + 100 + 2 + 200))
    (List.assoc "RESULT" engine.Engine.outputs);
  List.iter2
    (fun (_, v1) (_, v2) -> Alcotest.check Fixtures.check_value "oracle" v2 v1)
    engine.Engine.outputs oracle.Demand.outputs

let test_clobbered_copy_not_subsumed () =
  let plan, engine, _ = run_pair clobber_copy_grammar in
  Alcotest.check Fixtures.check_value "copy survives the clobber"
    (Value.Int 101)
    (List.assoc "OUT" engine.Engine.outputs);
  ignore plan

(* ----- allocation policy ----- *)

let test_no_copies_no_statics () =
  (* SCALE has only non-copy definitions: eviction must drop it. *)
  let _, _, alloc = alloc_of Fixtures.sum_grammar in
  Alcotest.(check int) "no globals" 0 alloc.Subsume.n_globals

let test_cross_pass_attrs_excluded () =
  (* Knuth's LEN is defined in pass 1 and used in pass 2: not a candidate. *)
  let ir, _, alloc = alloc_of Lg_languages.Knuth_binary.ag_source in
  Alcotest.(check bool) "LEN not static" false
    alloc.Subsume.static.(attr_id ir "list" "LEN")

let test_inh_and_syn_groups_separate () =
  let src =
    {|
grammar Mixed;
root top;
strategy bottom_up;
terminals K has intrinsic V : int; end
nonterminals
  top has syn OUT : int;
  w has inh X : int, syn OUT : int;
  u has inh X : int, syn OUT : int;
end
limbs TopLimb; WLimb; ULimb; end
productions
  top ::= w -> TopLimb :
    w.X = 5;
  w ::= u -> WLimb :
    u.X = w.X,
    w.OUT = u.OUT;
  u ::= K -> ULimb :
    u.OUT = u.X + K.V;
end
|}
  in
  let ir, _, alloc = alloc_of src in
  if
    alloc.Subsume.static.(attr_id ir "w" "X")
    && alloc.Subsume.static.(attr_id ir "w" "OUT")
  then
    Alcotest.(check bool) "inh X and syn OUT in different globals" true
      (alloc.Subsume.global_of.(attr_id ir "w" "X")
      <> alloc.Subsume.global_of.(attr_id ir "w" "OUT"))

let test_report_counts () =
  let ir, _, alloc = alloc_of Fixtures.env_grammar in
  let report = Subsume.report ir alloc in
  Alcotest.(check bool) "chosen <= candidates" true
    (report.Subsume.chosen <= report.Subsume.candidates);
  Alcotest.(check int) "evictions = candidates - chosen"
    (report.Subsume.candidates - report.Subsume.chosen)
    report.Subsume.evictions

let test_subsumption_reduces_rule_executions () =
  (* With subsumption, strictly fewer rules execute on a chain of items. *)
  let ir = Fixtures.ir_of_source Fixtures.env_grammar in
  let with_plan = Driver.plan_of_ir ir in
  let without_plan =
    Driver.plan_of_ir
      ~options:{ Driver.default_options with subsumption = false }
      ir
  in
  if Fixtures.subsumed_rules_of with_plan <> [] then begin
    let st = Random.State.make [| 4242 |] in
    let rng bound = Random.State.int st bound in
    let tree = Fixtures.random_tree ir ~rng ~size:50 in
    let r_with = Engine.run with_plan tree in
    let r_without = Engine.run without_plan tree in
    Alcotest.(check bool) "fewer rule executions" true
      (r_with.Engine.stats.Engine.rules_evaluated
      < r_without.Engine.stats.Engine.rules_evaluated);
    List.iter2
      (fun (n, v1) (_, v2) -> Alcotest.check Fixtures.check_value n v1 v2)
      r_with.Engine.outputs r_without.Engine.outputs
  end

let () =
  Alcotest.run "subsume"
    [
      ( "paper example",
        [
          Alcotest.test_case "allocation" `Quick test_listprod_allocation;
          Alcotest.test_case "save/restore emitted" `Quick
            test_listprod_save_restore_emitted;
          Alcotest.test_case "semantics preserved" `Quick test_listprod_semantics;
        ] );
      ( "clobber",
        [
          Alcotest.test_case "uses after clobber" `Quick test_clobber_uses;
          Alcotest.test_case "clobbered copy not subsumed" `Quick
            test_clobbered_copy_not_subsumed;
        ] );
      ( "policy",
        [
          Alcotest.test_case "no copies, no statics" `Quick test_no_copies_no_statics;
          Alcotest.test_case "cross-pass excluded" `Quick
            test_cross_pass_attrs_excluded;
          Alcotest.test_case "inh/syn groups separate" `Quick
            test_inh_and_syn_groups_separate;
          Alcotest.test_case "report invariants" `Quick test_report_counts;
          Alcotest.test_case "fewer executions" `Quick
            test_subsumption_reduces_rule_executions;
        ] );
    ]
