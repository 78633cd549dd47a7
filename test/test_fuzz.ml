(* Whole-pipeline fuzzing: random attribute grammars, generated as text,
   through scanner -> parser -> checker -> pass assignment -> scheduling ->
   subsumption -> engine, differentially against the oracle.

   Every optimization combo is crossed with both APT stores, so a store
   that corrupts the intermediate files shows up as a differential
   failure, not just a store-level test failure. Combos without static
   subsumption also run the interpretive engine mode. On a mismatch the
   campaign greedily drops productions from the generated source while
   the failure persists and reports the minimized reproducer. *)
open Linguist
module Ag_gen = Lg_corpus.Ag_gen

type verdict =
  | Accepted  (** evaluable; differential checks ran and passed *)
  | Rejected_evaluability  (** circular or needs too many passes: fine *)
  | Front_end_error of string  (** generator emitted an invalid grammar: bug *)
  | Mismatch of string  (** engine disagreed with the oracle: bug *)

let store_backends =
  List.map
    (fun (name, _, _) -> (name, Lg_apt.Aptfile.backend_of_store_name name))
    Lg_apt.Aptfile.stores

(* Run the back half of the pipeline on an already-parsed grammar. [rng]
   drives random-tree derivation; callers seed it deterministically. *)
let verdict_of_ir ~seed ~rng ~source ir =
  let pdiag = Lg_support.Diag.create () in
  match Pass_assign.compute ~max_passes:8 ~diag:pdiag ir with
  | None -> Rejected_evaluability
  | Some _ -> (
      try
        let tree = Fixtures.random_tree ir ~rng ~size:(10 + rng 40) in
        let failures =
          List.concat_map
            (fun (combo, options) ->
              let plan = Driver.plan_of_ir ~options ir in
              let oracle, applications =
                Demand.evaluate_traced plan.Plan.ir tree
              in
              (* every store, plus the Schulz-style interpretive mode on
                 the plans it accepts (no static subsumption) *)
              let modes =
                List.map
                  (fun (store, backend) ->
                    (store, { Engine.default_options with backend }))
                  store_backends
                @
                if options.Driver.subsumption then []
                else
                  [
                    ( "interpretive",
                      { Engine.default_options with interpretive = true } );
                  ]
              in
              List.filter_map
                (fun (mode, engine_options) ->
                  let engine =
                    Engine.run
                      ~options:{ engine_options with record_trace = true }
                      plan tree
                  in
                  let outputs_equal =
                    List.for_all2
                      (fun (_, v1) (_, v2) -> Lg_support.Value.equal v1 v2)
                      engine.Engine.outputs oracle.Demand.outputs
                  in
                  if
                    outputs_equal
                    && Fixtures.traces_agree plan engine.Engine.trace
                         applications
                  then None
                  else Some (combo ^ "/" ^ mode))
                modes)
            Fixtures.all_option_combos
        in
        match failures with
        | [] -> Accepted
        | combos ->
            Mismatch
              (Printf.sprintf "seed %d: combos [%s] disagree:\n%s" seed
                 (String.concat "; " combos)
                 source)
      with
      | Demand.Circular _ ->
          (* pass assignment accepted but an instance is circular:
             must be impossible *)
          Mismatch
            (Printf.sprintf
               "seed %d: oracle found a cycle in an accepted grammar:\n%s" seed
               source)
      | Schedule.Infeasible msg ->
          Mismatch
            (Printf.sprintf
               "seed %d: scheduling failed on an accepted grammar (%s):\n%s" seed
               msg source))

let verdict_of_source ~seed ~rng source =
  let diag = Lg_support.Diag.create () in
  match Ag_parse.parse ~file:"<fuzz>" ~diag source with
  | None -> Front_end_error (Format.asprintf "%a" Lg_support.Diag.pp_all diag)
  | Some ast -> (
      match Check.check ~diag ast with
      | None -> Front_end_error (Format.asprintf "%a" Lg_support.Diag.pp_all diag)
      | Some ir -> verdict_of_ir ~seed ~rng ~source ir)

let check_one seed =
  let st = Random.State.make [| seed |] in
  let rng bound = Random.State.int st bound in
  let source = Ag_gen.generate rng in
  verdict_of_source ~seed ~rng source

(* ---------------------------------------------------------------- *)
(* Reproducer minimization: drop whole productions from the generated
   text while the mismatch persists. Dropping can orphan a nonterminal or
   a limb; those attempts come back as Front_end_error and are simply not
   taken. *)

(* Split a generated source into the lines before the productions section,
   one block of lines per production, and the trailing lines. A block
   starts at a "  lhs ::= ..." line and runs through the line that closes
   the production with ';'. *)
let split_productions source =
  let lines = String.split_on_char '\n' source in
  let is_prod_start line =
    String.length line > 2
    && String.equal (String.sub line 0 2) "  "
    && Fixtures.contains_substring ~needle:"::=" line
  in
  let ends_block line =
    let t = String.trim line in
    String.length t > 0 && t.[String.length t - 1] = ';'
  in
  let rec before acc = function
    | [] -> (List.rev acc, [], [])
    | line :: rest when String.equal (String.trim line) "productions" ->
        let blocks, footer = blocks_of [] [] rest in
        (List.rev (line :: acc), blocks, footer)
    | line :: rest -> before (line :: acc) rest
  and blocks_of blocks current = function
    | [] -> (List.rev blocks, [])
    | line :: rest when current = [] && is_prod_start line ->
        if ends_block line then blocks_of ([ line ] :: blocks) [] rest
        else blocks_of blocks [ line ] rest
    | line :: rest when current <> [] ->
        if ends_block line then
          blocks_of (List.rev (line :: current) :: blocks) [] rest
        else blocks_of blocks (line :: current) rest
    | line :: rest ->
        (* first non-production line at block level closes the section *)
        ignore rest;
        (List.rev blocks, line :: rest)
  in
  before [] lines

let join_productions (header, blocks, footer) =
  String.concat "\n" (header @ List.concat blocks @ footer)

let minimize_reproducer ~seed source =
  let still_fails src =
    let st = Random.State.make [| seed |] in
    let rng bound = Random.State.int st bound in
    match verdict_of_source ~seed ~rng src with
    | Mismatch _ -> true
    | Accepted | Rejected_evaluability | Front_end_error _ -> false
  in
  let header, blocks, footer = split_productions source in
  let rebuild blocks = join_productions (header, blocks, footer) in
  let rec shrink blocks =
    let n = List.length blocks in
    let rec try_idx i =
      if i >= n then blocks
      else
        let candidate = List.filteri (fun j _ -> j <> i) blocks in
        if still_fails (rebuild candidate) then shrink candidate
        else try_idx (i + 1)
    in
    if n <= 1 then blocks else try_idx 0
  in
  if not (still_fails source) then None
  else
    let kept = shrink blocks in
    Some
      (Printf.sprintf "%d/%d productions kept:\n%s" (List.length kept)
         (List.length blocks) (rebuild kept))

let fail_with_reproducer ~seed msg =
  let st = Random.State.make [| seed |] in
  let rng bound = Random.State.int st bound in
  let source = Ag_gen.generate rng in
  match minimize_reproducer ~seed source with
  | Some minimized ->
      Alcotest.failf "%s\n--- minimized reproducer (seed %d, %s" msg seed
        minimized
  | None ->
      (* mismatch did not reproduce from a fresh rng (tree-dependent);
         report the original failure as-is *)
      Alcotest.failf "%s" msg

(* ---------------------------------------------------------------- *)

let n_seeds = 600

let test_fuzz_campaign () =
  let accepted = ref 0 and rejected = ref 0 in
  for seed = 1 to n_seeds do
    match check_one seed with
    | Accepted -> incr accepted
    | Rejected_evaluability -> incr rejected
    | Front_end_error msg ->
        Alcotest.failf "seed %d produced an invalid grammar: %s" seed msg
    | Mismatch msg -> fail_with_reproducer ~seed msg
  done;
  (* the campaign must not be vacuous in either direction *)
  Alcotest.(check bool)
    (Printf.sprintf "accepted %d, rejected %d" !accepted !rejected)
    true
    (!accepted >= n_seeds / 4 && !rejected > 0)

(* ---------------------------------------------------------------- *)
(* Fault-injection campaign: the same generated grammars evaluated over
   the "paged" store under a fault spec. Transient EIO at a low rate must be absorbed by
   the paged reader's bounded retries — every run matches the oracle exactly and
   the retry counter shows the faults were real. Destructive damage (bit
   flips, torn writes) must either leave the run unaffected or surface as
   a typed [Apt_error]: never a crash, never a silent mismatch. *)

let faulty_backend spec =
  let config =
    { Lg_apt.Apt_store.default_config with faults = Some spec }
  in
  Lg_apt.Aptfile.backend_of_store_name ~config "paged"

let run_faulty ~spec plan tree =
  Engine.run
    ~options:
      { Engine.default_options with backend = faulty_backend spec }
    plan tree

let outputs_match (engine : Engine.result) (oracle : Demand.result) =
  List.for_all2
    (fun (_, v1) (_, v2) -> Lg_support.Value.equal v1 v2)
    engine.Engine.outputs oracle.Demand.outputs

(* One seed of the campaign, as a pure function so the seeds can run on
   pool workers: Ok (evaluated, retries, degraded) tallies, or Error with
   the failure report. Nothing here raises an Alcotest failure — the
   aggregator does, on the first Error, from the main domain. *)
let faulty_seed_result seed =
  let st = Random.State.make [| seed |] in
  let rng bound = Random.State.int st bound in
  let source = Ag_gen.generate rng in
  let diag = Lg_support.Diag.create () in
  match Ag_parse.parse ~file:"<fuzz>" ~diag source with
  | None -> Ok (0, 0, 0)
  | Some ast -> (
      match Check.check ~diag ast with
      | None -> Ok (0, 0, 0)
      | Some ir -> (
          let pdiag = Lg_support.Diag.create () in
          match Pass_assign.compute ~max_passes:8 ~diag:pdiag ir with
          | None -> Ok (0, 0, 0)
          | Some _ -> (
              match Driver.plan_of_ir ir with
              | exception _ -> Ok (0, 0, 0)
              | plan -> (
                  let tree = Fixtures.random_tree ir ~rng ~size:(10 + rng 40) in
                  match Demand.evaluate plan.Plan.ir tree with
                  | exception Demand.Circular _ -> Ok (0, 0, 0)
                  | oracle -> (
                      (* 1%% transient EIO: retries absorb every fault *)
                      let r =
                        run_faulty
                          ~spec:
                            {
                              Lg_apt.Apt_store.f_seed = seed;
                              f_rate = 0.01;
                              f_kinds = [ Lg_apt.Apt_store.Transient_io ];
                            }
                          plan tree
                      in
                      if not (outputs_match r oracle) then
                        Error
                          (Printf.sprintf
                             "seed %d: transient faults changed the result:\n%s"
                             seed source)
                      else
                        let retries =
                          Lg_apt.Io_stats.get
                            r.Engine.stats.Engine.total_io
                              .Lg_apt.Io_stats.retries
                        in
                        (* destructive damage: identical success or a
                           typed failure, nothing else *)
                        let spec =
                          {
                            Lg_apt.Apt_store.f_seed = seed;
                            f_rate = 0.05;
                            f_kinds =
                              [
                                Lg_apt.Apt_store.Bit_flip;
                                Lg_apt.Apt_store.Torn_write;
                              ];
                          }
                        in
                        match run_faulty ~spec plan tree with
                        | r2 ->
                            if not (outputs_match r2 oracle) then
                              Error
                                (Printf.sprintf
                                   "seed %d: medium damage went undetected \
                                    (silent mismatch):\n%s"
                                   seed source)
                            else Ok (1, retries, 0)
                        | exception Lg_apt.Apt_error.Error _ ->
                            Ok (1, retries, 1)
                        | exception e ->
                            Error
                              (Printf.sprintf
                                 "seed %d: damage escaped the typed error \
                                  channel (%s):\n%s"
                                 seed (Printexc.to_string e) source))))))

(* Worker domains for the campaign: [--jobs N] on the test binary's
   command line (stripped before Alcotest sees it); defaults to the
   host's parallelism, capped — so a plain [dune runtest] on a multicore
   machine gets the speedup without asking. *)
let fuzz_jobs = ref (max 1 (min 4 (Domain.recommended_domain_count ())))

let test_fuzz_faulty_campaign () =
  let seeds = List.init n_seeds (fun i -> i + 1) in
  let results =
    if !fuzz_jobs <= 1 then List.map faulty_seed_result seeds
    else begin
      let pool =
        Lg_server.Pool.create ~workers:!fuzz_jobs ~queue_capacity:n_seeds ()
      in
      Fun.protect ~finally:(fun () -> Lg_server.Pool.drain pool) @@ fun () ->
      seeds
      |> List.map (fun seed ->
             match
               Lg_server.Pool.submit pool (fun () -> faulty_seed_result seed)
             with
             | Ok h -> h
             | Error _ -> Alcotest.fail "campaign pool saturated")
      |> List.map (fun h ->
             match Lg_server.Pool.await h with
             | Ok r -> r
             | Error e -> Error (Printexc.to_string e))
    end
  in
  let evaluated = ref 0 and degraded = ref 0 and retries = ref 0 in
  List.iter
    (function
      | Ok (e, r, d) ->
          evaluated := !evaluated + e;
          retries := !retries + r;
          degraded := !degraded + d
      | Error msg -> Alcotest.failf "%s" msg)
    results;
  (* the campaign must not be vacuous: grammars were evaluated, transient
     faults really fired (and were retried), and some damage was caught *)
  Alcotest.(check bool)
    (Printf.sprintf "evaluated %d, retried %d, degraded %d (%d jobs)"
       !evaluated !retries !degraded !fuzz_jobs)
    true
    (!evaluated >= n_seeds / 4 && !retries > 0 && !degraded > 0)

let test_fuzz_grammar_is_parseable_text () =
  (* The generator's output is valid surface syntax across many seeds
     (kept separate so syntax breakage is reported early and precisely). *)
  for seed = 1000 to 1050 do
    let st = Random.State.make [| seed |] in
    let rng bound = Random.State.int st bound in
    let source = Ag_gen.generate rng in
    ignore (Ag_parse.parse_exn ~file:"<fuzz>" source)
  done

(* The splitter must reassemble generated sources byte-for-byte and find
   every production, or minimization would corrupt reproducers. *)
let test_split_roundtrip () =
  for seed = 2000 to 2040 do
    let st = Random.State.make [| seed |] in
    let rng bound = Random.State.int st bound in
    let source = Ag_gen.generate rng in
    let (_, blocks, _) as parts = split_productions source in
    Alcotest.(check string)
      (Printf.sprintf "seed %d reassembles" seed)
      source (join_productions parts);
    if blocks = [] then Alcotest.failf "seed %d: no production blocks" seed;
    List.iter
      (fun block ->
        match block with
        | first :: _ when Fixtures.contains_substring ~needle:"::=" first -> ()
        | _ -> Alcotest.failf "seed %d: malformed block" seed)
      blocks
  done

(* Minimization itself, driven by a synthetic failure predicate: shrink to
   exactly the productions a fake "mismatch" depends on. *)
let test_minimizer_shrinks () =
  let st = Random.State.make [| 42 |] in
  let rng bound = Random.State.int st bound in
  let source = Ag_gen.generate rng in
  let header, blocks, footer = split_productions source in
  let needle =
    (* the lhs of the last production *)
    match List.rev blocks with
    | last :: _ -> String.trim (List.hd last)
    | [] -> Alcotest.fail "no blocks"
  in
  let still_fails src = Fixtures.contains_substring ~needle src in
  let rec shrink blocks =
    let n = List.length blocks in
    let rec try_idx i =
      if i >= n then blocks
      else
        let candidate = List.filteri (fun j _ -> j <> i) blocks in
        if still_fails (join_productions (header, candidate, footer)) then
          shrink candidate
        else try_idx (i + 1)
    in
    if n <= 1 then blocks else try_idx 0
  in
  let kept = shrink blocks in
  Alcotest.(check int) "shrinks to the one needed production" 1
    (List.length kept)

let test_backends_registered () =
  (* the cross-product is real: both stores participate *)
  Alcotest.(check (list string))
    "stores in the campaign" [ "mem"; "paged" ] (List.map fst store_backends)

(* Strip [--jobs N] (or [--jobs=N]) before Alcotest parses the command
   line; everything else passes through untouched. *)
let argv_without_jobs () =
  let rec strip acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest when int_of_string_opt n <> None ->
        fuzz_jobs := max 1 (int_of_string n);
        strip acc rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
        (match int_of_string_opt (String.sub arg 7 (String.length arg - 7)) with
        | Some n -> fuzz_jobs := max 1 n
        | None -> ());
        strip acc rest
    | arg :: rest -> strip (arg :: acc) rest
  in
  Array.of_list (strip [] (Array.to_list Sys.argv))

let () =
  let argv = argv_without_jobs () in
  Alcotest.run ~argv "fuzz"
    [
      ( "pipeline",
        [
          Alcotest.test_case "generator emits valid syntax" `Quick
            test_fuzz_grammar_is_parseable_text;
          Alcotest.test_case "production splitter round-trips" `Quick
            test_split_roundtrip;
          Alcotest.test_case "minimizer shrinks to the culprit" `Quick
            test_minimizer_shrinks;
          Alcotest.test_case "stores participate in the campaign" `Quick
            test_backends_registered;
          Alcotest.test_case "600-seed differential campaign, all stores" `Slow
            test_fuzz_campaign;
          Alcotest.test_case "600-seed fault-injection campaign" `Slow
            test_fuzz_faulty_campaign;
        ] );
    ]
