(* Tests for the self-description: the LINGUIST AG processed by the TWS,
   applied to other grammars and to itself (self-generation, experiment E1's
   workload). *)
open Linguist
open Lg_languages

(* Build once; these tests all share one translator. *)
let translator = lazy (Linguist_ag.translator ())

let test_e1_shape () =
  let t = Lazy.force translator in
  let ir = Translator.ir t in
  let stats = Ir.stats ir in
  (* The paper's bands: copy-rules 40-60% of semantic functions, implicit
     copies the large majority, 4 alternating passes. *)
  let pct = 100 * stats.Ir.n_copy_rules / stats.Ir.n_rules in
  Alcotest.(check bool)
    (Printf.sprintf "copy-rule share %d%% in [40,60]" pct)
    true
    (pct >= 40 && pct <= 60);
  Alcotest.(check bool) "implicit majority of copies" true
    (2 * stats.Ir.n_implicit_copy_rules > stats.Ir.n_copy_rules);
  let plan = Translator.plan t in
  Alcotest.(check int) "4 alternating passes" 4
    plan.Plan.passes.Pass_assign.n_passes;
  Alcotest.(check bool) "order of 70 productions" true
    (stats.Ir.n_prods >= 60 && stats.Ir.n_prods <= 80);
  Alcotest.(check bool) "over 100 symbols" true (stats.Ir.n_symbols > 100);
  Alcotest.(check bool) "over 150 attributes" true (stats.Ir.n_attrs > 150)

let test_analyzes_knuth () =
  let a =
    Linguist_ag.analyze ~translator:(Lazy.force translator)
      Knuth_binary.ag_source
  in
  Alcotest.(check int) "5 productions" 5 a.Linguist_ag.n_productions;
  Alcotest.(check int) "10 symbols" 10 a.Linguist_ag.n_symbols;
  Alcotest.(check int) "7 attribute declarations" 7 a.Linguist_ag.n_attr_decls;
  Alcotest.(check int) "9 explicit semantic functions" 9
    a.Linguist_ag.n_semantic_functions;
  (* every production appears in the report, in order *)
  Alcotest.(check (list string)) "report lists productions"
    [ "number"; "number"; "list"; "list0"; "bit" ]
    (List.map snd a.Linguist_ag.report);
  (* no undeclared/duplicate complaints *)
  Alcotest.(check bool) "only NotUsedLater warnings" true
    (List.for_all (fun (_, tag, _) -> String.equal tag "NotUsedLater")
       a.Linguist_ag.messages)

let test_detects_errors () =
  let bad =
    {|
grammar Bad;
root zz;
nonterminals a has syn X : t, syn X : t; a; end
productions
  a ::= mystery -> NoSuchLimb : a.X = other.Y;
end
|}
  in
  let a = Linguist_ag.analyze ~translator:(Lazy.force translator) bad in
  let tags = List.map (fun (_, tag, _) -> tag) a.Linguist_ag.messages in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " reported") true (List.mem expected tags))
    [
      "UndeclaredSymbol" (* zz and mystery and NoSuchLimb *);
      "DuplicateSymbol" (* a declared twice *);
      "DuplicateAttribute" (* X twice *);
      "UndeclaredOccurrence" (* other.Y *);
    ]

let test_detects_kind_misuse () =
  let bad =
    {|
grammar Kinds;
root T;
terminals T; end
nonterminals a has syn X : t; end
limbs L; end
productions
  T ::= a L -> a : a.X = 1;
  a ::= -> L : a.X = 0;
end
|}
  in
  let a = Linguist_ag.analyze ~translator:(Lazy.force translator) bad in
  let tags = List.map (fun (_, tag, _) -> tag) a.Linguist_ag.messages in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " reported") true (List.mem expected tags))
    [
      "RootMustBeNonterminal";
      "LhsMustBeNonterminal";
      "LimbInPhraseStructure";
      "NotALimbSymbol";
    ]

let test_detects_multiplicity () =
  let t = Lazy.force translator in
  let tags src =
    (Linguist_ag.analyze ~translator:t src).Linguist_ag.messages
    |> List.map (fun (_, tag, _) -> tag)
  in
  Alcotest.(check bool) "missing root" true
    (List.mem "MissingRoot" (tags "grammar G;\nnonterminals a; end\nproductions a ::= ;\nend\n"));
  Alcotest.(check bool) "multiple roots" true
    (List.mem "MultipleRoots"
       (tags "grammar G;\nroot a;\nroot a;\nnonterminals a; end\nproductions a ::= ;\nend\n"));
  Alcotest.(check bool) "multiple strategies" true
    (List.mem "MultipleStrategies"
       (tags
          "grammar G;\nroot a;\nstrategy bottom_up;\nstrategy bottom_up;\nnonterminals a; end\nproductions a ::= ;\nend\n"))

let test_self_application () =
  (* The grammar analyzes its own 498-line text: the numbers it reports
     about itself must agree with what our checker computes from the same
     text. *)
  let t = Lazy.force translator in
  let self = Linguist_ag.analyze ~translator:t Linguist_ag.ag_source in
  let ir = Translator.ir t in
  let stats = Ir.stats ir in
  Alcotest.(check int) "it counts its own symbols" stats.Ir.n_symbols
    self.Linguist_ag.n_symbols;
  Alcotest.(check int) "it counts its own attribute declarations"
    stats.Ir.n_attrs self.Linguist_ag.n_attr_decls;
  Alcotest.(check int) "it counts its own productions" stats.Ir.n_prods
    self.Linguist_ag.n_productions;
  (* NSEMS counts explicit semantic functions only; the checker's total
     includes the implicit copy-rules it inserted. *)
  Alcotest.(check int) "explicit semantic functions"
    (stats.Ir.n_rules - stats.Ir.n_implicit_copy_rules)
    self.Linguist_ag.n_semantic_functions;
  Alcotest.(check bool) "clean self-analysis (warnings only)" true
    (List.for_all (fun (_, tag, _) -> String.equal tag "NotUsedLater")
       self.Linguist_ag.messages);
  Alcotest.(check int) "report covers every production" stats.Ir.n_prods
    (List.length self.Linguist_ag.report);
  (* per-kind symbol counts agree with the checker's dictionary *)
  let kind_count k =
    Array.to_list ir.Ir.symbols
    |> List.filter (fun (s : Ir.symbol) -> s.Ir.s_kind = k)
    |> List.length
  in
  Alcotest.(check int) "terminal count" (kind_count Ir.Terminal)
    self.Linguist_ag.n_terminals;
  Alcotest.(check int) "nonterminal count" (kind_count Ir.Nonterminal)
    self.Linguist_ag.n_nonterminals;
  Alcotest.(check int) "limb count" (kind_count Ir.Limb)
    self.Linguist_ag.n_limbs;
  Alcotest.(check int) "kinds partition the symbols"
    self.Linguist_ag.n_symbols
    (self.Linguist_ag.n_terminals + self.Linguist_ag.n_nonterminals
    + self.Linguist_ag.n_limbs)

let test_bootstrap_fixpoint () =
  (* Self-generation: process linguist.ag twice through the whole TWS and
     compare the generated evaluator modules byte for byte. *)
  let gen () =
    let a = Driver.process_exn ~file:"linguist.ag" Linguist_ag.ag_source in
    List.map (fun (m : Pascal_gen.module_code) -> m.Pascal_gen.text) a.Driver.modules
  in
  let first = gen () and second = gen () in
  Alcotest.(check int) "same module count" (List.length first) (List.length second);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool) (Printf.sprintf "pass %d identical" (i + 1)) true
        (String.equal a b))
    (List.combine first second)

let test_differential_on_linguist_ag () =
  (* The engine agrees with the oracle on the APT of a real AG source. *)
  let t = Lazy.force translator in
  let diag = Lg_support.Diag.create () in
  let tree =
    match
      Translator.tree_of_source t ~file:"<in>" ~diag Desk_calc.ag_source
    with
    | Some tree -> tree
    | None -> Alcotest.fail "desk_calc.ag failed to parse"
  in
  let plan = Translator.plan t in
  let engine, oracle, applications = Fixtures.run_both plan tree in
  List.iter2
    (fun (n, v1) (_, v2) -> Alcotest.check Fixtures.check_value n v2 v1)
    engine.Engine.outputs oracle.Demand.outputs;
  Alcotest.(check bool) "traces agree" true
    (Fixtures.traces_agree plan engine.Engine.trace applications)

let test_grammar_files_in_sync () =
  (* grammars/*.ag are generated from the library sources by a promote
     rule; if someone edits one side, this test points at the drift. *)
  let read path =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some s
    end
    else None
  in
  List.iter
    (fun (path, expected) ->
      match read (Filename.concat "../../../grammars" path) with
      | Some contents ->
          Alcotest.(check bool) (path ^ " in sync") true
            (String.equal contents expected)
      | None -> () (* source tree not visible from the sandbox: skip *))
    [
      ("knuth_binary.ag", Knuth_binary.ag_source);
      ("desk_calc.ag", Desk_calc.ag_source);
      ("pascal_subset.ag", Pascal_ag.ag_source);
      ("assembler.ag", Assembler.ag_source);
      ("linguist.ag", Linguist_ag.ag_source);
    ]

let () =
  Alcotest.run "linguist_ag"
    [
      ( "self-description",
        [
          Alcotest.test_case "E1 shape" `Quick test_e1_shape;
          Alcotest.test_case "analyzes knuth.ag" `Quick test_analyzes_knuth;
          Alcotest.test_case "detects errors" `Quick test_detects_errors;
          Alcotest.test_case "detects kind misuse" `Quick test_detects_kind_misuse;
          Alcotest.test_case "detects multiplicity" `Quick test_detects_multiplicity;
          Alcotest.test_case "self-application" `Quick test_self_application;
          Alcotest.test_case "bootstrap fixpoint" `Quick test_bootstrap_fixpoint;
          Alcotest.test_case "engine = oracle on real input" `Quick
            test_differential_on_linguist_ag;
          Alcotest.test_case "grammar files in sync" `Quick
            test_grammar_files_in_sync;
        ] );
    ]
