(* The incremental re-translation subsystem: fingerprint/merge units,
   QCheck edit-sequence differentials (incremental = Demand = Engine,
   byte-identically, across both stores), fallback semantics,
   a churn fallback whose engine runs on a faulty medium, the cost-aware
   session cache, and the update job plumbing. *)
open Linguist
open Lg_incremental

let check_value = Fixtures.check_value

let plan_of src =
  Driver.plan_of_ir (Fixtures.ir_of_source ~lines:40 src)

let outputs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, va) (nb, vb) ->
         String.equal na nb && Lg_support.Value.equal va vb)
       a b

(* ---------- tree editing ---------- *)

let is_leaf (t : Lg_apt.Tree.t) = t.Lg_apt.Tree.prod = Lg_apt.Node.leaf_prod

(* Rebuild [tree] with the node at preorder position [at] replaced by
   what [subst] makes of it; the spine above gets fresh interiors,
   untouched siblings are shared physically — exactly what a re-parse
   after a localized edit produces. *)
let edit_at tree ~at ~subst =
  let n = ref (-1) in
  let rec go (t : Lg_apt.Tree.t) =
    incr n;
    if !n = at then subst t
    else if is_leaf t then t
    else begin
      let children = List.map go t.Lg_apt.Tree.children in
      if List.for_all2 ( == ) children t.Lg_apt.Tree.children then t
      else
        Lg_apt.Tree.interior ~prod:t.Lg_apt.Tree.prod ~sym:t.Lg_apt.Tree.sym
          ~children
    end
  in
  go tree

(* Perturb the intrinsic attributes of the first leaf at or after
   preorder position [at] (wrapping); always changes at least one value. *)
let perturb_leaf tree ~rng =
  let leaves = ref [] in
  let n = ref (-1) in
  let rec count (t : Lg_apt.Tree.t) =
    incr n;
    if is_leaf t && Array.length t.Lg_apt.Tree.leaf_attrs > 0 then
      leaves := !n :: !leaves;
    List.iter count t.Lg_apt.Tree.children
  in
  count tree;
  match !leaves with
  | [] -> tree
  | positions ->
      let at = List.nth positions (rng (List.length positions)) in
      edit_at tree ~at ~subst:(fun t ->
          let attrs =
            Array.map
              (function
                | Lg_support.Value.Int i -> Lg_support.Value.Int (i + 1 + rng 5)
                | Lg_support.Value.Name m ->
                    Lg_support.Value.Name ((m + 1) mod 4)
                | v -> v)
              t.Lg_apt.Tree.leaf_attrs
          in
          Lg_apt.Tree.leaf ~sym:t.Lg_apt.Tree.sym ~attrs)

(* Structural edit: replace a random subtree with a same-symbol subtree
   of a freshly generated donor tree (falls back to a leaf perturbation
   when no donor symbol matches). *)
let splice_subtree ir tree ~rng =
  let donor = Fixtures.random_tree ir ~rng ~size:(3 + rng 20) in
  let subtrees = ref [] in
  let rec collect (t : Lg_apt.Tree.t) =
    subtrees := t :: !subtrees;
    List.iter collect t.Lg_apt.Tree.children
  in
  collect donor;
  let positions = ref [] in
  let n = ref (-1) in
  let rec index (t : Lg_apt.Tree.t) =
    incr n;
    if
      (not (is_leaf t))
      && List.exists
           (fun (d : Lg_apt.Tree.t) ->
             (not (is_leaf d)) && d.Lg_apt.Tree.sym = t.Lg_apt.Tree.sym)
           !subtrees
    then positions := (!n, t.Lg_apt.Tree.sym) :: !positions;
    List.iter index t.Lg_apt.Tree.children
  in
  index tree;
  match !positions with
  | [] -> perturb_leaf tree ~rng
  | positions ->
      let at, sym = List.nth positions (rng (List.length positions)) in
      let candidates =
        List.filter
          (fun (d : Lg_apt.Tree.t) ->
            (not (is_leaf d)) && d.Lg_apt.Tree.sym = sym)
          !subtrees
      in
      let replacement = List.nth candidates (rng (List.length candidates)) in
      edit_at tree ~at ~subst:(fun _ -> replacement)

(* ---------- fingerprint / merge units ---------- *)

let test_fingerprint_interning () =
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let st = Random.State.make [| 7 |] in
  let rng bound = Random.State.int st bound in
  let tree = Fixtures.random_tree ir ~rng ~size:30 in
  (* a physically distinct but structurally identical copy *)
  let rec copy (t : Lg_apt.Tree.t) =
    if is_leaf t then
      Lg_apt.Tree.leaf ~sym:t.Lg_apt.Tree.sym ~attrs:t.Lg_apt.Tree.leaf_attrs
    else
      Lg_apt.Tree.interior ~prod:t.Lg_apt.Tree.prod ~sym:t.Lg_apt.Tree.sym
        ~children:(List.map copy t.Lg_apt.Tree.children)
  in
  let fp = Fingerprint.create () in
  Alcotest.(check int)
    "equal shapes intern to the same cons"
    (Fingerprint.cons fp tree)
    (Fingerprint.cons fp (copy tree));
  let edited = perturb_leaf tree ~rng in
  Alcotest.(check bool)
    "a perturbed leaf changes the root cons" false
    (Fingerprint.cons fp tree = Fingerprint.cons fp edited)

(* [random_tree]'s size is a budget, not a floor: scan seeds for a tree
   big enough that an edit leaves something to reuse. *)
let sizable_tree ir ~seed =
  let rec find s =
    if s > seed + 200 then Alcotest.fail "no sizable random tree found"
    else begin
      let st = Random.State.make [| s |] in
      let rng bound = Random.State.int st bound in
      let tree = Fixtures.random_tree ir ~rng ~size:40 in
      if Lg_apt.Tree.size tree >= 15 then (tree, rng) else find (s + 1)
    end
  in
  find seed

let node_ids tree =
  let ids = Hashtbl.create 64 in
  Lg_apt.Tree.iter_postfix_ltr
    (fun n -> Hashtbl.replace ids n.Lg_apt.Tree.id ())
    tree;
  ids

(* Every cached node is either still in the merged tree or reported
   discarded, never both, and the discarded ones close the books. *)
let check_partition ~prev ~merged ~discarded (stats : Tree_diff.stats) =
  let live = node_ids merged in
  let gone = Hashtbl.create 64 in
  List.iter
    (fun (n : Lg_apt.Tree.t) -> Hashtbl.replace gone n.Lg_apt.Tree.id ())
    discarded;
  Alcotest.(check int)
    "no node is discarded twice" (List.length discarded) (Hashtbl.length gone);
  Lg_apt.Tree.iter_postfix_ltr
    (fun (n : Lg_apt.Tree.t) ->
      match (Hashtbl.mem live n.Lg_apt.Tree.id, Hashtbl.mem gone n.Lg_apt.Tree.id) with
      | true, true -> Alcotest.failf "node %d is reused and discarded" n.Lg_apt.Tree.id
      | false, false ->
          Alcotest.failf "node %d is neither reused nor discarded" n.Lg_apt.Tree.id
      | _ -> ())
    prev;
  Alcotest.(check int)
    "discarded = prev - reused"
    (stats.Tree_diff.prev_nodes - stats.Tree_diff.reused_nodes)
    (List.length discarded)

let test_merge_reuses_unchanged () =
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let tree, rng = sizable_tree ir ~seed:11 in
  let edited = perturb_leaf tree ~rng in
  let fp = Fingerprint.create () in
  let merged, seeds, discarded, stats =
    Tree_diff.merge fp ~prev:tree ~next:edited
  in
  check_partition ~prev:tree ~merged ~discarded stats;
  Alcotest.(check int)
    "merge preserves the node count"
    (Lg_apt.Tree.size edited) (Lg_apt.Tree.size merged);
  Alcotest.(check bool) "an edit leaves seeds" true (seeds <> []);
  Alcotest.(check int)
    "reused + fresh covers the tree"
    (Lg_apt.Tree.size edited)
    (stats.Tree_diff.reused_nodes + stats.Tree_diff.fresh_nodes);
  Alcotest.(check bool)
    "unchanged subtrees are reused" true
    (stats.Tree_diff.reused_nodes > 0);
  Alcotest.(check bool)
    "churn is the fresh fraction" true
    (stats.Tree_diff.churn > 0.0 && stats.Tree_diff.churn < 1.0)

let test_merge_discards_overwritten_subtree () =
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let tree, _ = sizable_tree ir ~seed:11 in
  let is_fork (t : Lg_apt.Tree.t) = List.length t.Lg_apt.Tree.children = 2 in
  (* the last fork in preorder other than the top one, and any tip *)
  let forks = ref [] and tips = ref [] in
  let n = ref (-1) in
  let rec index (t : Lg_apt.Tree.t) =
    incr n;
    if is_fork t && !n >= 2 then forks := !n :: !forks
    else if (not (is_leaf t)) && List.for_all is_leaf t.Lg_apt.Tree.children
    then tips := t :: !tips;
    List.iter index t.Lg_apt.Tree.children
  in
  index tree;
  let at = match !forks with at :: _ -> at | [] -> Alcotest.fail "no fork" in
  let tip = match !tips with t :: _ -> t | [] -> Alcotest.fail "no tip" in
  (* overwrite that fork with a fresh tip: a different production, so
     the merge adopts the tip and must discard the whole fork subtree,
     which is in neither the merged tree nor the reused count *)
  let edited =
    edit_at tree ~at ~subst:(fun _ ->
        Lg_apt.Tree.interior ~prod:tip.Lg_apt.Tree.prod ~sym:tip.Lg_apt.Tree.sym
          ~children:
            (List.map
               (fun (l : Lg_apt.Tree.t) ->
                 Lg_apt.Tree.leaf ~sym:l.Lg_apt.Tree.sym
                   ~attrs:l.Lg_apt.Tree.leaf_attrs)
               tip.Lg_apt.Tree.children))
  in
  let fp = Fingerprint.create () in
  let merged, _, discarded, stats = Tree_diff.merge fp ~prev:tree ~next:edited in
  check_partition ~prev:tree ~merged ~discarded stats

(* ---------- the update path ---------- *)

let test_identical_resubmit_fires_nothing () =
  let plan = plan_of Fixtures.sum_grammar in
  let st = Random.State.make [| 23 |] in
  let rng bound = Random.State.int st bound in
  let tree = Fixtures.random_tree plan.Plan.ir ~rng ~size:30 in
  let engine_options = Engine.default_options in
  let config = Incr.default_config in
  let r1, state = Incr.update config ~plan ~engine_options ~tree in
  (match r1.Incr.mode with
  | Incr.Fresh { fired } ->
      Alcotest.(check bool) "first build fires rules" true (fired > 0)
  | _ -> Alcotest.fail "first update should be Fresh");
  let r2, _ =
    Incr.update ?state config ~plan ~engine_options ~tree
  in
  (match r2.Incr.mode with
  | Incr.Incremental { fired; fresh; _ } ->
      Alcotest.(check int) "identical resubmit fires nothing" 0 fired;
      Alcotest.(check int) "identical resubmit creates no nodes" 0 fresh
  | _ -> Alcotest.fail "resubmit should take the incremental path");
  Alcotest.(check (list (pair Alcotest.string check_value)))
    "outputs are stable" r1.Incr.outputs r2.Incr.outputs

let test_threshold_fallback_is_correct () =
  let plan = plan_of Fixtures.env_grammar in
  let st = Random.State.make [| 31 |] in
  let rng bound = Random.State.int st bound in
  let tree = Fixtures.random_tree plan.Plan.ir ~rng ~size:30 in
  let edited = perturb_leaf tree ~rng in
  let engine_options = Engine.default_options in
  let config = { Incr.threshold = 0.0 } in
  let _, state = Incr.update config ~plan ~engine_options ~tree in
  let r, next = Incr.update ?state config ~plan ~engine_options ~tree:edited in
  (match r.Incr.mode with
  | Incr.Fallback { churn; _ } ->
      Alcotest.(check bool) "fallback reports churn" true (churn > 0.0)
  | _ -> Alcotest.fail "threshold 0 must fall back on any edit");
  Alcotest.(check bool) "fallback drops the state" true (next = None);
  let oracle = Demand.evaluate plan.Plan.ir edited in
  Alcotest.(check (list (pair Alcotest.string check_value)))
    "fallback answers like the oracle" oracle.Demand.outputs r.Incr.outputs

(* ---------- edit-sequence differential (QCheck) ---------- *)

let store_backends =
  List.map
    (fun (name, _, _) -> (name, Lg_apt.Aptfile.backend_of_store_name name))
    Lg_apt.Aptfile.stores

(* One update's contract, [what] naming it in a failure: outputs equal
   to the demand oracle's and to the engine's on both stores,
   and a state holding exactly what a fresh build of the tree holds —
   nothing the merges discarded. *)
let check_update ~plan ~what tree (result : Incr.result) next =
  let engine_options = Engine.default_options in
  Option.iter
    (fun st ->
      let _, fresh =
        Incr.update Incr.default_config ~plan ~engine_options ~tree
      in
      let expected = Incr.memory_cells (Option.get fresh) in
      if Incr.memory_cells st <> expected then
        Alcotest.failf "%s: the state holds %d cells, a fresh build %d" what
          (Incr.memory_cells st) expected)
    next;
  let oracle = Demand.evaluate plan.Plan.ir tree in
  if not (outputs_equal result.Incr.outputs oracle.Demand.outputs) then
    Alcotest.failf "%s: incremental disagrees with the oracle" what;
  List.iter
    (fun (store, backend) ->
      let engine =
        Engine.run ~options:{ engine_options with backend } plan tree
      in
      if not (outputs_equal result.Incr.outputs engine.Engine.outputs) then
        Alcotest.failf "%s: incremental disagrees with the engine on %s" what
          store)
    store_backends

let run_edit_sequence ?(config = Incr.default_config) ~grammar ~seed ~edits
    () =
  let plan = plan_of grammar in
  let ir = plan.Plan.ir in
  let st = Random.State.make [| seed |] in
  let rng bound = Random.State.int st bound in
  let engine_options = Engine.default_options in
  let state = ref None in
  let tree = ref (Fixtures.random_tree ir ~rng ~size:(10 + rng 40)) in
  for step = 0 to edits do
    if step > 0 then
      tree :=
        (if rng 2 = 0 then splice_subtree ir !tree ~rng
         else perturb_leaf !tree ~rng);
    let result, next =
      Incr.update ?state:!state config ~plan ~engine_options ~tree:!tree
    in
    state := next;
    check_update ~plan
      ~what:(Printf.sprintf "seed %d step %d" seed step)
      !tree result next
  done

let prop_edit_sequence_differential =
  QCheck.Test.make
    ~name:"incremental = oracle = engine over random edit sequences" ~count:25
    QCheck.(pair (int_bound 100000) (int_range 0 1))
    (fun (seed, which) ->
      let grammar =
        if which = 0 then Fixtures.sum_grammar else Fixtures.env_grammar
      in
      run_edit_sequence ~grammar ~seed ~edits:6 ();
      true)

(* ---------- a real language under one-statement edits ---------- *)

(* Pascal-subset statements over the three integer variables the program
   header declares; every kind type-checks. *)
let pascal_stmt rng =
  let c = 1 + Random.State.int rng 9 in
  match Random.State.int rng 6 with
  | 0 -> Printf.sprintf "x := x + %d" c
  | 1 -> Printf.sprintf "y := y + x - %d" c
  | 2 -> Printf.sprintf "z := z + x * %d - y" c
  | 3 -> "writeln(z)"
  | 4 -> Printf.sprintf "if x > %d then z := z + 1 else z := z - %d" c c
  | _ -> Printf.sprintf "while x < %d do begin x := x + 1; y := y - 1 end" c

let pascal_program stmts =
  "program edits;\nvar x : integer; y : integer; z : integer;\nbegin\n  "
  ^ String.concat ";\n  " (Array.to_list stmts)
  ^ "\nend.\n"

(* Desk-calculator statements over three variables: a changed
   assignment changes the environment every later statement inherits,
   so its edits propagate in waves. *)
let calc_stmt rng =
  let var () = [| "a"; "b"; "c" |].(Random.State.int rng 3) in
  if Random.State.int rng 4 = 0 then
    Printf.sprintf "print %s + %s;\n" (var ()) (var ())
  else
    Printf.sprintf "%s := %s + %d;\n" (var ()) (var ()) (Random.State.int rng 9)

let calc_program stmts = String.concat "" (Array.to_list stmts)

(* A seeded document of [n] statements and the [edits] versions that
   follow it, each replacing one statement by a fresh one. *)
let versions ~stmt ~program ~seed ~n ~edits =
  let rng = Random.State.make [| seed |] in
  let stmts = Array.init n (fun _ -> stmt rng) in
  let first = program stmts in
  first
  :: List.init edits (fun _ ->
         stmts.(Random.State.int rng n) <- stmt rng;
         program stmts)

(* Thread [versions] through [Incr.update], checking each update's
   contract; return the first build's firings and each edit's (fired,
   waves, changed). *)
let run_versions translator versions =
  let plan = Translator.plan translator in
  let state = ref None and first = ref 0 and counts = ref [] in
  List.iteri
    (fun step source ->
      let diag = Lg_support.Diag.create () in
      let tree =
        match Translator.tree_of_source translator ~file:"doc" ~diag source with
        | Some tree -> tree
        | None -> Alcotest.failf "version %d does not parse" step
      in
      let result, next =
        Incr.update ?state:!state Incr.default_config ~plan
          ~engine_options:Engine.default_options ~tree
      in
      state := next;
      (match (step, result.Incr.mode, next) with
      | 0, Incr.Fresh { fired }, Some _ -> first := fired
      | _, Incr.Incremental { fired; waves; changed; _ }, Some _ ->
          counts := (fired, waves, changed) :: !counts
      | _ -> Alcotest.failf "version %d took an unexpected path" step);
      check_update ~plan ~what:(Printf.sprintf "version %d" step) tree result
        next)
    versions;
  (!first, List.rev !counts)

(* The pinned counters are exact: a change to any of them changes what
   propagation does, not just how fast. A wave fires its rules in the
   order they were queued, so they do not depend on how many nodes the
   process built before (the QCheck tests above build a random number). *)
let check_counts ~fresh ~edits (first, counts) =
  Alcotest.(check int) "first build fired" fresh first;
  Alcotest.(check (list (triple int int int)))
    "each edit's fired, waves and changed" edits counts

let test_pascal_edit_sequence () =
  run_versions
    (Lg_languages.Pascal_ag.translator ())
    (versions ~stmt:pascal_stmt ~program:pascal_program ~seed:41 ~n:100
       ~edits:12)
  |> check_counts ~fresh:7674 ~edits:
       [
         (300, 0, 0); (333, 0, 0); (84, 0, 0); (311, 0, 0); (188, 0, 0);
         (377, 0, 0); (526, 0, 0); (152, 0, 0); (413, 0, 0); (232, 0, 0);
         (87, 0, 0); (239, 0, 0);
       ]

let test_calc_edit_waves () =
  run_versions
    (Lg_languages.Desk_calc.translator ())
    (versions ~stmt:calc_stmt ~program:calc_program ~seed:2 ~n:30 ~edits:12)
  |> check_counts ~fresh:637 ~edits:
       [
         (352, 64, 235); (724, 105, 527); (460, 63, 294); (146, 4, 5);
         (58, 13, 21); (201, 49, 60); (0, 0, 0); (149, 0, 0); (72, 16, 28);
         (246, 40, 169); (177, 39, 49); (621, 93, 444);
       ]

(* ---------- Stuck: circular demand and the firing budget ---------- *)

(* The sum grammar with one rule turned circular: a fork's left child
   now takes its depth from its own sum, which a tip computes from its
   depth. Check accepts it (it is well formed); only the evaluability
   check would refuse it. The productions, attributes and rule ids are
   the sum grammar's. *)
let circular_sum_grammar =
  let plain = "tree1.DEPTH = tree0.DEPTH + 1" in
  let n = String.length plain and src = Fixtures.sum_grammar in
  let rec at i = if String.sub src i n = plain then i else at (i + 1) in
  let i = at 0 in
  String.sub src 0 i ^ "tree1.DEPTH = tree1.SUM + 1"
  ^ String.sub src (i + n) (String.length src - i - n)

let interior (tree : Lg_apt.Tree.t) =
  let acc = ref [] in
  Lg_apt.Tree.iter_postfix_ltr
    (fun n -> if not (is_leaf n) then acc := n :: !acc)
    tree;
  !acc

(* A store holding a row for every node of [tree], nothing computed. *)
let fresh_store index tree =
  let versions = Attr_versions.create ~widths:(Propagate.widths index) in
  Attr_versions.add_tree versions tree;
  versions

let expect_stuck ~needle f =
  match f () with
  | _ -> Alcotest.fail "expected Propagate.Stuck"
  | exception Propagate.Stuck reason ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" reason needle)
        true
        (Fixtures.contains_substring ~needle reason)

let test_stuck_on_circular_demand () =
  let ir = Fixtures.ir_of_source circular_sum_grammar in
  let tree, _ = sizable_tree ir ~seed:11 in
  let index = Propagate.dep_index ir in
  let versions = fresh_store index tree in
  expect_stuck ~needle:"demanded circularly" (fun () ->
      Propagate.run ~index ~versions ~tracer:Lg_support.Trace.null
        ~seeds:(interior tree) ~max_fired:max_int);
  Alcotest.(check int) "no in-progress marker is left" 0
    (Attr_versions.markers versions)

let test_stuck_on_firing_budget () =
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let tree, _ = sizable_tree ir ~seed:11 in
  let index = Propagate.dep_index ir in
  let versions = fresh_store index tree in
  let run max_fired =
    Propagate.run ~index ~versions ~tracer:Lg_support.Trace.null
      ~seeds:(interior tree) ~max_fired
  in
  expect_stuck ~needle:"firing budget" (fun () -> run 1);
  (* a budget that runs out deep in a demand, with instances in progress *)
  expect_stuck ~needle:"firing budget" (fun () -> run 4);
  Alcotest.(check int) "no in-progress marker is left" 0
    (Attr_versions.markers versions);
  (* the instances the stuck run was computing are absent again, so the
     same store completes and answers like the oracle *)
  ignore (run max_int);
  let total = Option.get (Ir.find_attr ir ~sym:ir.Ir.root ~name:"TOTAL") in
  Alcotest.(check (list (pair Alcotest.string check_value)))
    "a full run after the stuck one answers like the oracle"
    (Demand.evaluate ir tree).Demand.outputs
    [ ("TOTAL", Propagate.demand ~index ~versions tree total.Ir.a_id) ]

let test_stuck_falls_back_to_the_engine () =
  (* the sum grammar's plan, carrying the circular IR: the engine runs
     the plan's passes, propagation demands through the circular rule *)
  let plan = plan_of Fixtures.sum_grammar in
  let circular =
    { plan with Plan.ir = Fixtures.ir_of_source circular_sum_grammar }
  in
  let tree, _ = sizable_tree plan.Plan.ir ~seed:11 in
  let engine_options = Engine.default_options in
  let r, next =
    Incr.update Incr.default_config ~plan:circular ~engine_options ~tree
  in
  (match r.Incr.mode with
  | Incr.Fallback { reason; _ } ->
      Alcotest.(check bool)
        "the fallback names the cycle" true
        (Fixtures.contains_substring ~needle:"demanded circularly" reason)
  | _ -> Alcotest.fail "a stuck fresh build must fall back");
  Alcotest.(check bool) "the fallback keeps no state" true (next = None);
  Alcotest.(check (list (pair Alcotest.string check_value)))
    "the fallback answers like the engine"
    (Engine.run ~options:engine_options circular tree).Engine.outputs
    r.Incr.outputs

(* Run [f] with [m] as the ambient registry, where [Incr.update]
   publishes its counters. *)
let with_metrics m f =
  Lg_support.Metrics.install m;
  Fun.protect
    ~finally:(fun () -> Lg_support.Metrics.install Lg_support.Metrics.null)
    f

let test_long_sequence_rebuilds_fingerprints () =
  (* long enough for the fingerprint memo to outgrow 3 * tree + 1024;
     threshold 1.0 keeps every edit on the delta path *)
  let metrics = Lg_support.Metrics.create () in
  let config = { Incr.threshold = 1.0 } in
  with_metrics metrics (fun () ->
      run_edit_sequence ~config ~grammar:Fixtures.env_grammar ~seed:5
        ~edits:250 ());
  match Lg_support.Metrics.find metrics "incremental.compactions" with
  | Some (Lg_support.Metrics.Counter n) ->
      Alcotest.(check bool) "the fingerprint rebuild ran" true (n > 0)
  | _ -> Alcotest.fail "incremental.compactions not published"

(* ---------- fault injection ---------- *)

let faulty_backend ~kinds ~rate =
  let config =
    {
      Lg_apt.Apt_store.default_config with
      faults =
        Some { Lg_apt.Apt_store.f_seed = 13; f_rate = rate; f_kinds = kinds };
    }
  in
  Lg_apt.Aptfile.backend_of_store_name ~config "paged"

let test_churn_fallback_on_faulty_medium () =
  (* threshold 0 sends the edit down the churn fallback, whose engine
     runs on a medium that damages every write: the caller gets the
     engine's typed 40-44 error or a correct answer, and the engine
     runs once *)
  let plan = plan_of Fixtures.sum_grammar in
  let st = Random.State.make [| 59 |] in
  let rng bound = Random.State.int st bound in
  let tree = Fixtures.random_tree plan.Plan.ir ~rng ~size:25 in
  let metrics = Lg_support.Metrics.create () in
  let config = { Incr.threshold = 0.0 } in
  let faulty = faulty_backend ~kinds:[ Lg_apt.Apt_store.Bit_flip ] ~rate:1.0 in
  let engine_options = { Engine.default_options with backend = faulty } in
  (* the fresh build propagates on the heap: the medium is not touched *)
  let _, state =
    with_metrics metrics (fun () ->
        Incr.update config ~plan ~engine_options ~tree)
  in
  Alcotest.(check bool) "the fresh build keeps its state" true (state <> None);
  let edited = perturb_leaf tree ~rng in
  (match
     with_metrics metrics (fun () ->
         Incr.update ?state config ~plan ~engine_options ~tree:edited)
   with
  | exception Lg_apt.Apt_error.Error e ->
      let code = Lg_apt.Apt_error.exit_code e in
      Alcotest.(check bool)
        (Printf.sprintf "exit code %d is in the typed 40-44 range" code)
        true
        (code >= 40 && code <= 44)
  | r, _ ->
      let oracle = Demand.evaluate plan.Plan.ir edited in
      Alcotest.(check (list (pair Alcotest.string check_value)))
        "never a wrong answer" oracle.Demand.outputs r.Incr.outputs);
  match Lg_support.Metrics.find metrics "incremental.fallbacks" with
  | Some (Lg_support.Metrics.Counter n) ->
      Alcotest.(check int) "one fallback counted" 1 n
  | _ -> Alcotest.fail "incremental.fallbacks not published"

(* ---------- the cost-aware session cache ---------- *)

let shared_translator =
  lazy
    (match Translator.of_source ~ag_source:Fixtures.sum_grammar ~file:"<cache>" () with
    | Ok t -> t
    | Error _ -> Alcotest.fail "the sum grammar does not build")

let test_cost_aware_eviction () =
  let cache = Lg_server.Session.create_cache ~capacity:2 () in
  let build () = Lazy.force shared_translator in
  let add ~weight digest label =
    ignore
      (Lg_server.Session.find_or_build cache ~weight ~digest ~label ~build ())
  in
  add ~weight:100.0 "dig-a" "a-expensive";
  add ~weight:1.0 "dig-b" "b-cheap";
  (* a third entry must evict the cheap one, not the expensive one *)
  add ~weight:1.0 "dig-c" "c-cheap";
  let labels =
    List.map
      (fun (i : Lg_server.Session.info) -> i.Lg_server.Session.i_label)
      (Lg_server.Session.entries_info cache)
  in
  Alcotest.(check (list string))
    "the cheap entry went first"
    [ "a-expensive"; "c-cheap" ] labels;
  let evictions, _ = Lg_server.Session.eviction_stats cache in
  Alcotest.(check int) "one eviction" 1 evictions

let test_ttl_expiry () =
  let now = ref 0.0 in
  let cache =
    Lg_server.Session.create_cache ~capacity:4 ~ttl:10.0
      ~clock:(fun () -> !now)
      ()
  in
  let build () = Lazy.force shared_translator in
  ignore
    (Lg_server.Session.find_or_build cache ~weight:1.0 ~digest:"dig-old"
       ~label:"old" ~build ());
  now := 20.0;
  ignore
    (Lg_server.Session.find_or_build cache ~weight:1.0 ~digest:"dig-new"
       ~label:"new" ~build ());
  let labels =
    List.map
      (fun (i : Lg_server.Session.info) -> i.Lg_server.Session.i_label)
      (Lg_server.Session.entries_info cache)
  in
  Alcotest.(check (list string)) "the idle entry expired" [ "new" ] labels;
  let _, expirations = Lg_server.Session.eviction_stats cache in
  Alcotest.(check int) "one ttl expiration" 1 expirations

let test_evict_clear_and_docs () =
  let cache = Lg_server.Session.create_cache ~capacity:4 () in
  let build () = Lazy.force shared_translator in
  ignore
    (Lg_server.Session.find_or_build cache ~weight:1.0 ~digest:"dig-a"
       ~label:"a" ~build ());
  let slot = Lg_server.Session.doc_slot cache ~digest:"dig-a" ~doc:"buf.txt" in
  Alcotest.(check bool) "fresh slot has no state" true (slot.Lg_server.Session.doc_state = None);
  Alcotest.(check int) "one parked doc" 1 (Lg_server.Session.doc_count cache);
  Alcotest.(check bool)
    "evicting an absent digest is false" false
    (Lg_server.Session.evict cache ~digest:"dig-missing");
  Alcotest.(check bool)
    "evicting a present digest is true" true
    (Lg_server.Session.evict cache ~digest:"dig-a");
  Alcotest.(check int)
    "eviction drops the docs too" 0
    (Lg_server.Session.doc_count cache);
  ignore
    (Lg_server.Session.find_or_build cache ~weight:1.0 ~digest:"dig-b"
       ~label:"b" ~build ());
  ignore
    (Lg_server.Session.find_or_build cache ~weight:1.0 ~digest:"dig-c"
       ~label:"c" ~build ());
  Alcotest.(check int) "clear drops everything" 2 (Lg_server.Session.clear cache);
  Alcotest.(check int) "cache is empty" 0 (Lg_server.Session.length cache)

(* ---------- the update job plumbing ---------- *)

let test_jobfile_update_roundtrip () =
  let jobs =
    [
      Lg_server.Jobfile.make ~id:"u1"
        ~op:(Lg_server.Jobfile.Update (Lg_server.Jobfile.Language "desk_calc"))
        ~doc:"buffer-7" ~file:"in.calc" ();
      Lg_server.Jobfile.make ~id:"u2"
        ~op:(Lg_server.Jobfile.Update (Lg_server.Jobfile.Language "desk_calc"))
        ~file:"other.calc" ();
    ]
  in
  match Lg_server.Jobfile.parse (Lg_server.Jobfile.to_string jobs) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok parsed ->
      Alcotest.(check int) "both jobs survive" 2 (List.length parsed);
      let j1 = List.hd parsed and j2 = List.nth parsed 1 in
      (match j1.Lg_server.Jobfile.j_op with
      | Lg_server.Jobfile.Update (Lg_server.Jobfile.Language lang) ->
          Alcotest.(check string) "language survives" "desk_calc" lang
      | _ -> Alcotest.fail "op changed kind");
      Alcotest.(check (option string))
        "doc survives" (Some "buffer-7") j1.Lg_server.Jobfile.j_doc;
      Alcotest.(check (option string))
        "absent doc stays absent" None j2.Lg_server.Jobfile.j_doc

let test_jobfile_update_validation () =
  let parse s = Lg_server.Jobfile.parse s in
  (match
     parse
       {|{"linguist_jobs":1,"jobs":[{"op":"update","file":"x.calc"}]}|}
   with
  | Error msg ->
      Alcotest.(check bool) "update needs a language" true
        (Fixtures.contains_substring ~needle:"language" msg)
  | Ok _ -> Alcotest.fail "update without language must be rejected");
  match
    parse
      {|{"linguist_jobs":1,"jobs":[{"op":"translate","language":"desk_calc","doc":"d","file":"x.calc"}]}|}
  with
  | Error msg ->
      Alcotest.(check bool) "doc only applies to update" true
        (Fixtures.contains_substring ~needle:"doc" msg)
  | Ok _ -> Alcotest.fail "doc on translate must be rejected"

let test_batch_update_jobs_deterministic () =
  let dir = Filename.temp_file "lg-test-inc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let path = Filename.concat dir "prog.calc" in
  let oc = open_out path in
  output_string oc "a := 1;\nb := a + 2;\nprint a + b;\n";
  close_out oc;
  let job =
    Lg_server.Jobfile.make ~id:"u"
      ~op:(Lg_server.Jobfile.Update (Lg_server.Jobfile.Language "desk_calc"))
      ~doc:"prog" ~file:path ()
  in
  let sessions = Lg_server.Session.create_cache () in
  let payload (o : Lg_server.Batch.outcome) =
    Lg_support.Json_out.to_string o.Lg_server.Batch.o_payload
  in
  let stateless = Lg_server.Batch.run_job ~sessions job in
  Alcotest.(check bool) "stateless update succeeds" true
    stateless.Lg_server.Batch.o_ok;
  let inc = Lg_server.Batch.default_incremental in
  let first = Lg_server.Batch.run_job ~sessions ~incremental:inc job in
  let second = Lg_server.Batch.run_job ~sessions ~incremental:inc job in
  Alcotest.(check bool) "incremental update succeeds" true
    first.Lg_server.Batch.o_ok;
  (* the payload carries only outputs/tree size — independent of whether
     the evaluation was fresh, incremental or stateless, so pooled runs
     stay byte-identical to sequential ones *)
  Alcotest.(check string)
    "stateless and incremental payloads match" (payload stateless)
    (payload first);
  Alcotest.(check string)
    "a state-hit changes nothing" (payload first) (payload second);
  Alcotest.(check int) "the doc state is parked" 1
    (Lg_server.Session.doc_count sessions)

let () =
  Alcotest.run "incremental"
    [
      ( "diff",
        [
          Alcotest.test_case "fingerprints intern by shape" `Quick
            test_fingerprint_interning;
          Alcotest.test_case "merge reuses unchanged subtrees" `Quick
            test_merge_reuses_unchanged;
          Alcotest.test_case "merge discards an overwritten subtree" `Quick
            test_merge_discards_overwritten_subtree;
        ] );
      ( "update",
        [
          Alcotest.test_case "identical resubmit fires nothing" `Quick
            test_identical_resubmit_fires_nothing;
          Alcotest.test_case "threshold fallback stays correct" `Quick
            test_threshold_fallback_is_correct;
          QCheck_alcotest.to_alcotest prop_edit_sequence_differential;
          Alcotest.test_case "long sequence rebuilds the fingerprints" `Quick
            test_long_sequence_rebuilds_fingerprints;
          Alcotest.test_case "pascal edits match the oracle and engine" `Quick
            test_pascal_edit_sequence;
          Alcotest.test_case "desk_calc edits propagate in pinned waves" `Quick
            test_calc_edit_waves;
        ] );
      ( "stuck",
        [
          Alcotest.test_case "a circular demand raises Stuck" `Quick
            test_stuck_on_circular_demand;
          Alcotest.test_case "the firing budget raises Stuck" `Quick
            test_stuck_on_firing_budget;
          Alcotest.test_case "update falls back on Stuck" `Quick
            test_stuck_falls_back_to_the_engine;
        ] );
      ( "faults",
        [
          Alcotest.test_case "double fault surfaces the typed error" `Quick
            test_churn_fallback_on_faulty_medium;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "eviction is cost-aware" `Quick
            test_cost_aware_eviction;
          Alcotest.test_case "ttl expires idle entries" `Quick test_ttl_expiry;
          Alcotest.test_case "evict, clear and parked docs" `Quick
            test_evict_clear_and_docs;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "update op round-trips" `Quick
            test_jobfile_update_roundtrip;
          Alcotest.test_case "update op is validated" `Quick
            test_jobfile_update_validation;
          Alcotest.test_case "batch update payloads are deterministic" `Quick
            test_batch_update_jobs_deterministic;
        ] );
    ]
