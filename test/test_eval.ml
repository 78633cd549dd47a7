(* Differential tests: the alternating-pass engine against the demand-driven
   oracle, across all optimization combinations, plus engine bookkeeping. *)
open Linguist
open Lg_support

let check_value = Fixtures.check_value

let plans_for src =
  List.map
    (fun (name, options) ->
      let ir = Fixtures.ir_of_source src in
      (name, Driver.plan_of_ir ~options ir))
    Fixtures.all_option_combos

let differential_case src ~seeds ~size =
  List.iter
    (fun (combo, plan) ->
      List.iter
        (fun seed ->
          let st = Random.State.make [| seed |] in
          let rng bound = Random.State.int st bound in
          let tree = Fixtures.random_tree plan.Plan.ir ~rng ~size in
          let engine, oracle = Fixtures.run_both plan tree in
          let label what = Printf.sprintf "%s/seed %d: %s" combo seed what in
          List.iter2
            (fun (n1, v1) (n2, v2) ->
              Alcotest.(check string) (label "output name") n1 n2;
              Alcotest.check check_value (label ("output " ^ n1)) v2 v1)
            engine.Engine.outputs oracle.Demand.outputs;
          Alcotest.(check bool) (label "traces agree") true
            (Fixtures.traces_agree plan engine.Engine.trace
               oracle.Demand.applications))
        seeds)
    (plans_for src)

let test_differential_sums () =
  differential_case Fixtures.sum_grammar ~seeds:[ 1; 2; 3; 4; 5 ] ~size:25

let test_differential_envs () =
  differential_case Fixtures.env_grammar ~seeds:[ 10; 11; 12; 13; 14 ] ~size:30

let test_differential_knuth () =
  differential_case Lg_languages.Knuth_binary.ag_source
    ~seeds:[ 20; 21; 22 ] ~size:25

let test_differential_pascal () =
  differential_case Lg_languages.Pascal_ag.ag_source ~seeds:[ 30; 31 ] ~size:40

let test_differential_desk_calc () =
  differential_case Lg_languages.Desk_calc.ag_source ~seeds:[ 40; 41; 42 ] ~size:30

(* Property version over many random seeds for the richest grammar. *)
let prop_differential =
  QCheck.Test.make ~name:"engine = oracle on random env trees" ~count:60
    QCheck.(pair (int_bound 100000) (int_range 1 60))
    (fun (seed, size) ->
      let ir = Fixtures.ir_of_source Fixtures.env_grammar in
      let plan = Driver.plan_of_ir ir in
      let st = Random.State.make [| seed |] in
      let rng bound = Random.State.int st bound in
      let tree = Fixtures.random_tree ir ~rng ~size in
      let engine, oracle = Fixtures.run_both plan tree in
      List.for_all2
        (fun (_, v1) (_, v2) -> Value.equal v1 v2)
        engine.Engine.outputs oracle.Demand.outputs
      && Fixtures.traces_agree plan engine.Engine.trace oracle.Demand.applications)

(* All four optimization combos produce identical outputs on one tree. *)
let test_ablations_agree () =
  let plans = plans_for Fixtures.env_grammar in
  let st = Random.State.make [| 99 |] in
  let rng bound = Random.State.int st bound in
  let ir = (snd (List.hd plans)).Plan.ir in
  let tree = Fixtures.random_tree ir ~rng ~size:40 in
  (* The tree was generated against the first plan's IR; rebuild for each
     plan instead (ids differ). Use one IR for all plans. *)
  let options_plans =
    List.map
      (fun (name, options) -> (name, Driver.plan_of_ir ~options ir))
      Fixtures.all_option_combos
  in
  let results =
    List.map
      (fun (name, plan) -> (name, Engine.run plan tree))
      options_plans
  in
  match results with
  | (_, first) :: rest ->
      List.iter
        (fun (name, r) ->
          List.iter2
            (fun (n1, v1) (_, v2) ->
              Alcotest.check check_value
                (Printf.sprintf "%s output %s" name n1)
                v1 v2)
            first.Engine.outputs r.Engine.outputs)
        rest
  | [] -> Alcotest.fail "no results"

(* The Schulz-style interpretive mode computes the same results. *)
let test_interpretive_mode () =
  let no_sub = { Driver.default_options with subsumption = false } in
  List.iter
    (fun src ->
      let ir = Fixtures.ir_of_source src in
      let plan = Driver.plan_of_ir ~options:no_sub ir in
      let st = Random.State.make [| 321 |] in
      let rng bound = Random.State.int st bound in
      let tree = Fixtures.random_tree ir ~rng ~size:30 in
      let engine, oracle =
        Fixtures.run_both
          ~engine_options:{ Engine.default_options with interpretive = true }
          plan tree
      in
      List.iter2
        (fun (n, v1) (_, v2) -> Alcotest.check check_value n v2 v1)
        engine.Engine.outputs oracle.Demand.outputs;
      Alcotest.(check bool) "traces agree" true
        (Fixtures.traces_agree plan engine.Engine.trace oracle.Demand.applications))
    [ Fixtures.sum_grammar; Fixtures.env_grammar; Lg_languages.Pascal_ag.ag_source ]

let test_interpretive_requires_no_subsumption () =
  let ir = Fixtures.ir_of_source Lg_languages.Desk_calc.ag_source in
  let plan = Driver.plan_of_ir ir in
  if plan.Plan.alloc.Subsume.n_globals > 0 then
    match
      Engine.run
        ~options:{ Engine.default_options with interpretive = true }
        plan
        (Fixtures.random_tree ir
           ~rng:(fun b -> b / 2)
           ~size:5)
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "interpretive + subsumption must be rejected"

(* ----- engine bookkeeping ----- *)

let line_tree ir n =
  (* A maximally deep tree in the env grammar: n items chained. *)
  let st = Random.State.make [| 7 |] in
  let rng bound = Random.State.int st bound in
  ignore rng;
  let def_sym =
    Array.to_list ir.Ir.symbols
    |> List.find (fun (s : Ir.symbol) -> s.Ir.s_name = "DEF")
  in
  let leaf i =
    Lg_apt.Tree.leaf ~sym:def_sym.Ir.s_id
      ~attrs:[| Value.Name (i mod 3); Value.Int i |]
  in
  let find_prod tag =
    Array.to_list ir.Ir.prods
    |> List.find (fun (p : Ir.production) -> String.equal p.Ir.p_tag tag)
  in
  let cons_p = find_prod "ConsLimb" in
  let last_p = find_prod "LastLimb" in
  let top_p = find_prod "TopLimb" in
  let item_p = find_prod "DefLimb" in
  let item i =
    Lg_apt.Tree.interior ~prod:item_p.Ir.p_id ~sym:item_p.Ir.p_lhs
      ~children:[ leaf i ]
  in
  let rec chain i acc =
    if i >= n then acc
    else
      chain (i + 1)
        (Lg_apt.Tree.interior ~prod:cons_p.Ir.p_id ~sym:cons_p.Ir.p_lhs
           ~children:[ acc; item i ])
  in
  let items =
    chain 1
      (Lg_apt.Tree.interior ~prod:last_p.Ir.p_id ~sym:last_p.Ir.p_lhs
         ~children:[ item 0 ])
  in
  Lg_apt.Tree.interior ~prod:top_p.Ir.p_id ~sym:top_p.Ir.p_lhs
    ~children:[ items ]

let test_stats_shape () =
  let ir = Fixtures.ir_of_source Fixtures.env_grammar in
  let plan = Driver.plan_of_ir ir in
  let tree = line_tree ir 50 in
  let r = Engine.run plan tree in
  let n_passes = plan.Plan.passes.Pass_assign.n_passes in
  Alcotest.(check int) "one stats record per pass" n_passes
    (List.length r.Engine.stats.Engine.per_pass);
  (* Leaves are never "open": the spine excludes the leaf level. *)
  Alcotest.(check int) "open nodes = interior depth"
    (Lg_apt.Tree.depth tree - 1)
    r.Engine.stats.Engine.max_open_nodes;
  Alcotest.(check bool) "io accounted" true
    (Lg_apt.Io_stats.total_bytes r.Engine.stats.Engine.total_io > 0)

(* F2: the resident set is the spine, far smaller than the APT files. *)
let test_residency_far_below_file_size () =
  let ir = Fixtures.ir_of_source Fixtures.env_grammar in
  let plan = Driver.plan_of_ir ir in
  let tree = line_tree ir 400 in
  let r = Engine.run plan tree in
  let resident = r.Engine.stats.Engine.max_resident_slots in
  let apt_bytes = r.Engine.stats.Engine.apt_total_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "resident slots (%d) << apt bytes (%d)" resident apt_bytes)
    true
    (resident * 4 < apt_bytes)

let test_dead_opt_shrinks_files () =
  let ir = Fixtures.ir_of_source Fixtures.env_grammar in
  let tree = line_tree ir 100 in
  let sizes options =
    let plan = Driver.plan_of_ir ~options ir in
    let r = Engine.run plan tree in
    List.fold_left
      (fun acc (ps : Engine.pass_stats) -> acc + ps.Engine.ps_file_bytes)
      0 r.Engine.stats.Engine.per_pass
  in
  let optimized = sizes Driver.default_options in
  let keep_all =
    sizes { Driver.default_options with dead_opt = false; subsumption = false }
  in
  Alcotest.(check bool)
    (Printf.sprintf "optimized (%d) < keep-all (%d)" optimized keep_all)
    true (optimized < keep_all)

let test_paged_and_mem_backends_agree () =
  let dir = Filename.temp_file "engtest" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let ir = Fixtures.ir_of_source Fixtures.env_grammar in
      let plan = Driver.plan_of_ir ir in
      let tree = line_tree ir 30 in
      let mem = Engine.run plan tree in
      let paged =
        Engine.run
          ~options:
            {
              Engine.default_options with
              backend =
                Lg_apt.Aptfile.backend_of_store_name
                  ~config:{ Lg_apt.Apt_store.default_config with dir = Some dir }
                  "paged";
            }
          plan tree
      in
      List.iter2
        (fun (n, v1) (_, v2) -> Alcotest.check check_value n v1 v2)
        mem.Engine.outputs paged.Engine.outputs;
      Alcotest.(check int) "same bytes written"
        (Lg_apt.Io_stats.get
           mem.Engine.stats.Engine.total_io.Lg_apt.Io_stats.bytes_written)
        (Lg_apt.Io_stats.get
           paged.Engine.stats.Engine.total_io.Lg_apt.Io_stats.bytes_written))

let test_engine_rejects_foreign_tree () =
  let ir = Fixtures.ir_of_source Fixtures.env_grammar in
  let plan = Driver.plan_of_ir ir in
  let bad = Lg_apt.Tree.leaf ~sym:0 ~attrs:[| Value.Int 1; Value.Int 2 |] in
  match Engine.run plan bad with
  | exception Engine.Evaluation_error _ -> ()
  | _ -> Alcotest.fail "leaf as root must be rejected"

let test_oracle_detects_circularity () =
  let src =
    {|
grammar Circ;
root top;
terminals K; end
nonterminals
  top has syn TOTAL : int;
  x has inh A : int, syn B : int;
end
limbs TopL; XL; end
productions
  top ::= x -> TopL :
    x.A = x.B,
    top.TOTAL = x.B;
  x ::= K -> XL :
    x.B = x.A;
end
|}
  in
  let ir = Fixtures.ir_of_source src in
  let k_sym =
    Array.to_list ir.Ir.symbols
    |> List.find (fun (s : Ir.symbol) -> s.Ir.s_name = "K")
  in
  let leaf = Lg_apt.Tree.leaf ~sym:k_sym.Ir.s_id ~attrs:[||] in
  let x = Lg_apt.Tree.interior ~prod:1 ~sym:ir.Ir.prods.(1).Ir.p_lhs ~children:[ leaf ] in
  let tree = Lg_apt.Tree.interior ~prod:0 ~sym:ir.Ir.root ~children:[ x ] in
  match Demand.evaluate ir tree with
  | exception Demand.Circular _ -> ()
  | _ -> Alcotest.fail "oracle must detect the cycle"

let test_demand_instance () =
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let leaf v = Lg_apt.Tree.leaf ~sym:0 ~attrs:[| Value.Int v |] in
  let tip v = Lg_apt.Tree.interior ~prod:2 ~sym:2 ~children:[ leaf v ] in
  let fork l r = Lg_apt.Tree.interior ~prod:1 ~sym:2 ~children:[ l; r ] in
  let tree = Lg_apt.Tree.interior ~prod:0 ~sym:1 ~children:[ fork (tip 5) (tip 7) ] in
  (* tips are at depth 1; SUM of left tip = 5 + 1 *)
  Alcotest.check check_value "left tip SUM" (Value.Int 6)
    (Demand.instance ir tree ~path:[ 0; 0 ] ~attr:"SUM");
  Alcotest.check check_value "root TOTAL" (Value.Int (6 + 8))
    (Demand.instance ir tree ~path:[] ~attr:"TOTAL")

(* Failed runs (a depth budget hit mid-pass, a torn file read back) and
   successful ones leave their store directory empty and the process's
   descriptor count unchanged. *)
let test_failed_runs_leave_nothing () =
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let plan = Driver.plan_of_ir ir in
  let st = Random.State.make [| 17 |] in
  let tree = Fixtures.random_tree ir ~rng:(Random.State.int st) ~size:40 in
  let dir = Filename.temp_file "engine_leak" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then
      Some (Array.length (Sys.readdir "/proc/self/fd"))
    else None
  in
  let fds_before = open_fds () in
  let run ~store ?faults ?(depth_budget = Engine.default_depth_budget) () =
    let config =
      { Lg_apt.Apt_store.default_config with dir = Some dir; faults }
    in
    let backend = Lg_apt.Aptfile.backend_of_store_name ~config store in
    Engine.run ~options:{ Engine.default_options with backend; depth_budget }
      plan tree
  in
  let torn =
    {
      Lg_apt.Apt_store.f_seed = 7;
      f_rate = 1.0;
      f_kinds = [ Lg_apt.Apt_store.Torn_write ];
    }
  in
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  List.iter
    (fun store ->
      ignore (run ~store ());
      (match run ~store ~depth_budget:1 () with
      | exception Lg_apt.Apt_error.Error (Lg_apt.Apt_error.Resource_limit _)
        ->
          ()
      | _ -> Alcotest.failf "%s: depth budget 1 must fail the run" store);
      if store <> "mem" then
        match run ~store ~faults:torn () with
        | exception Lg_apt.Apt_error.Error _ -> ()
        | _ -> Alcotest.failf "%s: a torn write must fail the run" store)
    [ "mem"; "paged"; "zip" ];
  Gc.full_major ();
  Alcotest.(check (list string)) "no APT file left" []
    (Array.to_list (Sys.readdir dir));
  Alcotest.(check (option int)) "no descriptor left open" fds_before
    (open_fds ())

(* ----- one expression, every consumer ----- *)

(* Each semantic rule has one expression, and four evaluators read it:
   the compiled engine (through its plan's operand locations), the
   Schulz-style interpretive engine (through the rule's references,
   subsumption off), the demand-driven oracle and a fresh incremental
   build. On each case all four give the same outputs, and the engine's
   rule and global-move counters keep their pinned values. *)
let consumer_cases () =
  let open Lg_languages in
  let corpus profile =
    let g =
      Lg_corpus.Corpus_gen.generate ~name:"corpus"
        (Lg_corpus.Corpus_gen.config_of_profile profile)
        ~seed:1
    in
    let make ~options () =
      match
        Translator.of_source ~options ~ag_source:g.Lg_corpus.Corpus_gen.g_source
          ~file:"corpus" ()
      with
      | Ok t -> t
      | Error _ -> Alcotest.fail "corpus grammar does not build"
    in
    let sentence =
      Lg_corpus.Corpus_gen.sentence (Lg_corpus.Corpus_gen.build_exn g) ~seed:1
        ~size:200
    in
    (make, sentence)
  in
  [
    ( "desk_calc",
      Desk_calc.translator_with,
      "x := 4; print x - 1;\ny := x + z; print (y + 2) - (3 - x);" );
    ("knuth_binary", Knuth_binary.translator_with, "1101.0101");
    ( "assembler",
      Assembler.translator_with,
      "push 0\nstore i\nloop: load i\npush 1\nadd\nstore i\nload i\npush 4\n\
       lt\njt loop\nload i\nout\njf skip\npush 7\nout\nskip: push 9\nout\n" );
    ( "pascal",
      Pascal_ag.translator_with,
      {|
program fib;
var a : integer; b : integer; t : integer; i : integer; f : boolean;
begin
  a := 0; b := 1; i := 0; f := a < b;
  while i < 10 do begin t := a + b; a := b; b := t; i := i + 1 end;
  if not f then writeln(a) else writeln(b * 2)
end.
|} );
    ("linguist", Linguist_ag.translator_with, Linguist_ag.ag_source);
  ]
  @ List.map
      (fun (name, profile) ->
        let make, sentence = corpus profile in
        (name, make, sentence))
      Lg_corpus.Corpus_gen.
        [
          ("small/1", Small);
          ("medium/1", Medium);
          ("large/1", Large);
          ("xl/1", Xl);
        ]

(* (case, compiled rules, compiled global moves, interpretive rules) *)
let expected_consumer_counters =
  [
    ("desk_calc", 80, 15, 105);
    ("knuth_binary", 41, 0, 41);
    ("assembler", 230, 178, 397);
    ("pascal", 319, 66, 450);
    ("linguist", 22707, 891, 29149);
    ("small/1", 43, 0, 43);
    ("medium/1", 123, 0, 123);
    ("large/1", 455, 0, 455);
    ("xl/1", 1868, 0, 1868);
  ]

let test_consumers_agree () =
  let counters =
    List.map
      (fun (name, make, input) ->
        let subsumed = make ~options:Driver.default_options ()
        and plain =
          make
            ~options:{ Driver.default_options with Driver.subsumption = false }
            ()
        in
        let tree_of t =
          match
            Translator.tree_of_source t ~file:name ~diag:(Diag.create ()) input
          with
          | Some tree -> tree
          | None -> Alcotest.failf "%s: the sample input does not parse" name
        in
        let plan = Translator.plan subsumed in
        let tree = tree_of subsumed in
        let compiled = Engine.run plan tree in
        let interpretive =
          Engine.run
            ~options:{ Engine.default_options with Engine.interpretive = true }
            (Translator.plan plain) (tree_of plain)
        in
        let oracle = Demand.evaluate (Translator.ir subsumed) tree in
        let incr, _ =
          Lg_incremental.Incr.update Lg_incremental.Incr.default_config ~plan
            ~engine_options:Engine.default_options ~tree:(tree_of subsumed)
        in
        (match incr.Lg_incremental.Incr.mode with
        | Lg_incremental.Incr.Fresh _ -> ()
        | _ -> Alcotest.failf "%s: the incremental build fell back" name);
        let same what outputs =
          Alcotest.(check (list string))
            (Printf.sprintf "%s: %s output names" name what)
            (List.map fst compiled.Engine.outputs)
            (List.map fst outputs);
          List.iter2
            (fun (n, want) (_, got) ->
              Alcotest.check check_value
                (Printf.sprintf "%s: %s output %s" name what n)
                want got)
            compiled.Engine.outputs outputs
        in
        same "interpretive" interpretive.Engine.outputs;
        same "demand" oracle.Demand.outputs;
        same "incremental" incr.Lg_incremental.Incr.outputs;
        ( name,
          compiled.Engine.stats.Engine.rules_evaluated,
          compiled.Engine.stats.Engine.global_moves,
          interpretive.Engine.stats.Engine.rules_evaluated ))
      (consumer_cases ())
  in
  Alcotest.(check (list (pair string (triple int int int))))
    "engine counters"
    (List.map (fun (n, a, b, c) -> (n, (a, b, c))) expected_consumer_counters)
    (List.map (fun (n, a, b, c) -> (n, (a, b, c))) counters)

let () =
  Alcotest.run "eval"
    [
      ( "differential",
        [
          Alcotest.test_case "sums" `Quick test_differential_sums;
          Alcotest.test_case "envs" `Quick test_differential_envs;
          Alcotest.test_case "knuth" `Quick test_differential_knuth;
          Alcotest.test_case "pascal" `Quick test_differential_pascal;
          Alcotest.test_case "desk calc" `Quick test_differential_desk_calc;
          Alcotest.test_case "ablations agree" `Quick test_ablations_agree;
          QCheck_alcotest.to_alcotest prop_differential;
          Alcotest.test_case "interpretive mode" `Quick test_interpretive_mode;
          Alcotest.test_case "interpretive guard" `Quick
            test_interpretive_requires_no_subsumption;
        ] );
      ( "one expression",
        [
          Alcotest.test_case "every consumer agrees" `Quick
            test_consumers_agree;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "stats shape" `Quick test_stats_shape;
          Alcotest.test_case "F2 residency" `Quick test_residency_far_below_file_size;
          Alcotest.test_case "dead-attr shrinks files" `Quick
            test_dead_opt_shrinks_files;
          Alcotest.test_case "paged = mem backend" `Quick
            test_paged_and_mem_backends_agree;
          Alcotest.test_case "foreign tree rejected" `Quick
            test_engine_rejects_foreign_tree;
          Alcotest.test_case "oracle circularity" `Quick
            test_oracle_detects_circularity;
          Alcotest.test_case "demand instance" `Quick test_demand_instance;
          Alcotest.test_case "failed runs leave nothing" `Quick
            test_failed_runs_leave_nothing;
        ] );
    ]
