(* End-to-end tests of the installed command-line interface: golden output
   for the `stores` listing, the files `compile` writes, the --trace-out /
   --trace-attrs telemetry flags, and the diagnostics (exit code + stderr)
   for invalid invocations.

   Runs the real executable; dune's deps field makes ../bin/linguist_cli.exe
   and the promoted grammars available in the test's build directory. *)

(* Resolve siblings of this test binary inside _build, so the suite works
   under both `dune runtest` (cwd = build dir) and `dune exec`. *)
let build_root = Filename.dirname (Filename.dirname Sys.executable_name)
let cli = Filename.concat build_root (Filename.concat "bin" "linguist_cli.exe")

let grammar_file name =
  Filename.concat build_root (Filename.concat "grammars" (name ^ ".ag"))

let grammar = grammar_file "linguist"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Run the CLI with [args]; return (exit code, stdout, stderr). *)
let run args =
  let out = Filename.temp_file "cli_out" ".txt" in
  let err = Filename.temp_file "cli_err" ".txt" in
  let cmd =
    Printf.sprintf "%s > %s 2> %s"
      (Filename.quote_command cli args)
      (Filename.quote out) (Filename.quote err)
  in
  let rc = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (rc, stdout, stderr)

let contains = Fixtures.contains_substring

let expect_ok name (rc, _, stderr) =
  if rc <> 0 then Alcotest.failf "%s: exit %d, stderr: %s" name rc stderr

(* cmdliner reports all user errors (bad flag values, unknown options,
   missing files) through the same documented exit code. *)
let cli_error_code = 124

let expect_cli_error name fragment (rc, _, stderr) =
  Alcotest.(check int) (name ^ ": exit code") cli_error_code rc;
  if not (contains ~needle:fragment stderr) then
    Alcotest.failf "%s: stderr missing %S:\n%s" name fragment stderr

(* ---------------------------------------------------------------- *)

let test_stores_listing () =
  let ((_, stdout, _) as r) = run [ "stores" ] in
  expect_ok "stores" r;
  Alcotest.(check (list string))
    "the two stores" [ "mem"; "paged" ]
    (List.map (fun (name, _, _) -> name) Lg_apt.Aptfile.stores);
  if not (contains ~needle:"registered APT stores" stdout) then
    Alcotest.failf "stores: missing header:\n%s" stdout;
  (* golden against the store table itself: every store is listed with
     its description *)
  List.iter
    (fun (name, _, description) ->
      if not (contains ~needle:("\n  " ^ name) stdout) then
        Alcotest.failf "stores: %s not listed:\n%s" name stdout;
      if not (contains ~needle:description stdout) then
        Alcotest.failf "stores: description of %s not listed" name)
    Lg_apt.Aptfile.stores

let test_check_ok () =
  let ((_, stdout, _) as r) = run [ "check"; grammar ] in
  expect_ok "check" r;
  if not (contains ~needle:"ok — evaluable in 4 alternating passes" stdout)
  then Alcotest.failf "check: unexpected stdout:\n%s" stdout

let test_trace_out () =
  let path = Filename.temp_file "cli_trace" ".json" in
  let ((_, _, stderr) as r) = run [ "check"; "--trace-out"; path; grammar ] in
  expect_ok "check --trace-out" r;
  if not (contains ~needle:("trace: wrote " ^ path) stderr) then
    Alcotest.failf "--trace-out: no confirmation on stderr:\n%s" stderr;
  let j = Lg_support.Json_out.parse (read_file path) in
  Sys.remove path;
  Alcotest.(check string)
    "displayTimeUnit" "ms"
    (Lg_support.Json_out.to_str (Lg_support.Json_out.member_exn "displayTimeUnit" j));
  let events = Lg_support.Json_out.to_list (Lg_support.Json_out.member_exn "traceEvents" j) in
  let phase e = Lg_support.Json_out.to_str (Lg_support.Json_out.member_exn "ph" e) in
  let name e = Lg_support.Json_out.to_str (Lg_support.Json_out.member_exn "name" e) in
  let num k e = Lg_support.Json_out.to_num (Lg_support.Json_out.member_exn k e) in
  if not (List.exists (fun e -> phase e = "M") events) then
    Alcotest.fail "no metadata event";
  let xs = List.filter (fun e -> phase e = "X") events in
  if List.length xs < 8 then
    Alcotest.failf "only %d span events" (List.length xs);
  List.iter
    (fun e ->
      if num "ts" e < 0.0 || num "dur" e < 0.0 then
        Alcotest.failf "negative ts/dur on %s" (name e);
      Alcotest.(check (float 0.0)) "pid" 1.0 (num "pid" e);
      Alcotest.(check (float 0.0)) "tid" 1.0 (num "tid" e))
    xs;
  (* acceptance criterion: the driver overlays account for (nearly) all of
     the pipeline's wall time *)
  let cat e =
    match Lg_support.Json_out.member "cat" e with Some (Lg_support.Json_out.Str s) -> s | _ -> ""
  in
  let driver =
    match List.find_opt (fun e -> name e = "driver.process") xs with
    | Some e -> e
    | None -> Alcotest.fail "no driver.process span"
  in
  let overlay_total =
    List.fold_left
      (fun acc e -> if cat e = "overlay" then acc +. num "dur" e else acc)
      0.0 xs
  in
  if overlay_total < 0.9 *. num "dur" driver then
    Alcotest.failf "overlay spans cover %.0f of %.0f us" overlay_total
      (num "dur" driver)

let test_trace_attrs_summary () =
  let ((_, _, stderr) as r) = run [ "check"; "--trace-attrs"; grammar ] in
  expect_ok "check --trace-attrs" r;
  List.iter
    (fun fragment ->
      if not (contains ~needle:fragment stderr) then
        Alcotest.failf "--trace-attrs summary missing %S:\n%s" fragment stderr)
    [ "trace summary"; "driver.process"; "parse"; "planning" ]

let test_bad_store () =
  expect_cli_error "--apt-store bogus" "unknown APT store \"bogus\""
    (run [ "analyze"; "--apt-store"; "bogus"; grammar ])

(* a pruned store name is refused like any unknown one, with the list of
   the stores that remain — [faulty] too, whose fault injection [paged]
   applies itself *)
let test_removed_store () =
  List.iter
    (fun store ->
      expect_cli_error ("--apt-store " ^ store)
        (Printf.sprintf "unknown APT store %S (registered: mem, paged)" store)
        (run [ "analyze"; "--apt-store"; store; grammar ]))
    [ "disk"; "faulty"; "zip" ]

let test_bad_page_size () =
  expect_cli_error "--apt-page-size 0" "--apt-page-size must be positive"
    (run [ "analyze"; "--apt-page-size"; "0"; grammar ])

(* a removed option or command is refused like any unknown one *)
let test_unknown_flag () =
  expect_cli_error "unknown option" "unknown option '--no-such-flag'"
    (run [ "check"; "--no-such-flag"; grammar ]);
  expect_cli_error "--apt-durable" "unknown option '--apt-durable'"
    (run [ "analyze"; "--apt-durable"; grammar ]);
  expect_cli_error "apt-fsck" "unknown command 'apt-fsck'"
    (run [ "apt-fsck"; grammar ])

let test_missing_file () =
  expect_cli_error "missing file" "no '/no/such/file.ag' file"
    (run [ "check"; "/no/such/file.ag" ])

let test_bad_fault_spec () =
  expect_cli_error "--apt-faults nonsense" "--apt-faults"
    (run [ "analyze"; "--apt-faults"; "nonsense"; grammar ])

(* A fresh directory for [f], removed with everything in it afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "cli_dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)

(* compile writes the listing and one Pascal module per pass, nothing
   else *)
let test_compile_outputs () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (name, passes) ->
      let out = Filename.concat dir name in
      expect_ok ("compile " ^ name)
        (run [ "compile"; grammar_file name; "-o"; out ]);
      Alcotest.(check (list string))
        (name ^ ": files written")
        ("listing.txt"
        :: List.init passes (fun i -> Printf.sprintf "pass%d.pas" (i + 1)))
        (List.sort compare (Array.to_list (Sys.readdir out))))
    [
      ("desk_calc", 2); ("knuth_binary", 2); ("pascal_subset", 2);
      ("assembler", 3); ("linguist", 4);
    ]

(* an output path that cannot be written is a usage error naming the
   path, not an uncaught Sys_error *)
let test_unwritable_outputs () =
  with_temp_dir @@ fun dir ->
  let file = Filename.concat dir "FILE" in
  close_out (open_out file);
  let missing = Filename.concat dir (Filename.concat "missing" "dir") in
  let g = grammar_file "desk_calc" in
  List.iter
    (fun (args, path) ->
      let name = String.concat " " (List.filter (( <> ) g) args) in
      let ((_, _, stderr) as r) = run args in
      expect_cli_error name path r;
      if contains ~needle:"internal error" stderr then
        Alcotest.failf "%s: internal error:\n%s" name stderr)
    [
      ([ "compile"; g; "-o"; Filename.concat missing "out" ], missing);
      ([ "compile"; g; "-o"; file ], file);
      ([ "check"; "--report"; Filename.concat missing "x.json"; g ], missing);
      ([ "check"; "--trace-out"; Filename.concat missing "x.json"; g ], missing);
    ]

(* The same for the commands that write a file outside the front end:
   [corpus generate --out], and [coordinate --out] after an empty job
   list (its one worker is never contacted). *)
let test_unwritable_generated_outputs () =
  with_temp_dir @@ fun dir ->
  let jobs = Filename.concat dir "jobs.json" in
  let oc = open_out jobs in
  output_string oc {|{"linguist_jobs": 1, "jobs": []}|};
  close_out oc;
  let missing = Filename.concat dir "missing" in
  List.iter
    (fun (name, args) ->
      let ((_, _, stderr) as r) = run args in
      expect_cli_error name missing r;
      if contains ~needle:"internal error" stderr then
        Alcotest.failf "%s: internal error:\n%s" name stderr)
    [
      ( "corpus generate --out",
        [ "corpus"; "generate"; "--out"; Filename.concat missing "x.ag" ] );
      ( "coordinate --out",
        [
          "coordinate"; jobs; "--worker"; Filename.concat dir "no.sock";
          "--attempts"; "1"; "--out"; Filename.concat missing "x.json";
        ] );
    ]

(* the store is a setting of an evaluator run: commands that only run
   the front end do not take it *)
let test_front_end_refuses_store () =
  expect_cli_error "check --apt-store" "unknown option '--apt-store'"
    (run [ "check"; "--apt-store"; "paged"; grammar ])

(* ----- typed APT failures: stable exit codes, pinned forever ----- *)

(* Evaluation-side typed failures surface on stderr via the guard. *)
let expect_typed_error name code fragment (rc, _, stderr) =
  Alcotest.(check int) (name ^ ": exit code") code rc;
  if not (contains ~needle:fragment stderr) then
    Alcotest.failf "%s: stderr missing %S:\n%s" name fragment stderr

let test_exhausted_retries_exit_43 () =
  (* every read hits an injected EIO; the bounded retries run out *)
  expect_typed_error "exhausted retries" 43 "APT I/O failed"
    (run
       [
         "analyze"; "--apt-store"; "paged"; "--apt-faults"; "1:1.0:transient";
         grammar;
       ])

(* Write-side kinds damage the paged medium, and the evaluation fails
   typed instead of finishing on a damaged file. *)
let test_write_faults_honoured () =
  let rc, _, stderr =
    run
      [
        "analyze"; "--apt-store"; "paged"; "--apt-faults"; "1:1.0:torn,flip";
        grammar;
      ]
  in
  if rc <> 40 && rc <> 41 then
    Alcotest.failf "expected exit 40 or 41, got %d:\n%s" rc stderr

(* The codes of a damaged APT file, one class each. The offline checker
   these were first pinned through is gone: an APT file lives only as
   long as the run that wrote it, so a run's own damaged file reaches 40
   and 41 (a flipped bit is a corrupt record, a torn write a truncated
   file). *)
let expect_damage_exit kind code fragment =
  expect_typed_error kind code fragment
    (run
       [
         "analyze"; "--apt-store"; "paged"; "--apt-faults"; "7:1.0:" ^ kind;
         grammar;
       ])

let test_corrupt_record_exit_40 () =
  expect_damage_exit "flip" 40 "corrupt APT record"

let test_truncated_file_exit_41 () =
  expect_damage_exit "torn" 41 "truncated APT file"

(* No run meets a file it did not write, so 42 is checked on the error a
   reader raises for a seed-layout file, as the CLI's guard renders it
   and with the code it exits with. *)
let test_version_mismatch_exit_42 () =
  let open Lg_apt in
  let w = Store_paged.start Apt_store.default_config None in
  w.put "alpha";
  let f = w.close () in
  Fun.protect ~finally:f.f_dispose @@ fun () ->
  let path = Option.get f.f_path in
  (* the seed layout at the written size: [u32 17 | 17 bytes | u32 17] *)
  let oc = open_out_bin path in
  output_string oc "\x11\x00\x00\x00kkkkkkkkkkkkkkkkk\x11\x00\x00\x00";
  close_out oc;
  match (f.f_read None `Forward).next () with
  | exception Apt_error.Error e ->
      Alcotest.(check int) "exit code" 42 (Apt_error.exit_code e);
      let shown =
        Format.asprintf "%a" Lg_support.Diag.pp (Apt_error.to_diag e)
      in
      List.iter
        (fun needle ->
          if not (contains ~needle shown) then
            Alcotest.failf "diagnostic missing %S:\n%s" needle shown)
        [ "APT version mismatch"; path ]
  | _ -> Alcotest.fail "seed layout read as data"

let test_depth_budget_exit_44 () =
  expect_typed_error "depth budget" 44 "evaluation exceeded the depth budget"
    (run [ "analyze"; "--depth-budget"; "1"; grammar ])

let test_node_budget_exit_44 () =
  expect_typed_error "node budget" 44 "evaluation exceeded the node budget"
    (run [ "analyze"; "--node-budget"; "5"; grammar ])

(* ----- run manifests, the report renderer and the diff gate ----- *)

let bench = Filename.concat build_root (Filename.concat "bench" "main.exe")

(* Run the bench binary with [args]; return (exit code, stdout, stderr). *)
let run_bench args =
  let out = Filename.temp_file "bench_out" ".txt" in
  let err = Filename.temp_file "bench_err" ".txt" in
  let cmd =
    Printf.sprintf "%s > %s 2> %s"
      (Filename.quote_command bench args)
      (Filename.quote out) (Filename.quote err)
  in
  let rc = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (rc, stdout, stderr)

let with_manifest f =
  let path = Filename.temp_file "cli_manifest" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let ((_, _, stderr) as r) = run [ "check"; "--report"; path; grammar ] in
  expect_ok "check --report" r;
  if not (contains ~needle:("manifest: wrote " ^ path) stderr) then
    Alcotest.failf "--report: no confirmation on stderr:\n%s" stderr;
  f path (Lg_support.Json_out.parse (read_file path))

(* Acceptance criterion: the manifest's grammar-statistics block
   reproduces the self-description counts the stats command prints for
   linguist.ag. *)
let test_report_manifest () =
  with_manifest @@ fun _path j ->
  let num path_keys =
    Lg_support.Json_out.to_int
      (List.fold_left
         (fun acc k -> Lg_support.Json_out.member_exn k acc)
         j path_keys)
  in
  Alcotest.(check int) "schema" 1 (num [ "linguist_manifest" ]);
  List.iter
    (fun (key, expected) ->
      Alcotest.(check int) ("grammar." ^ key) expected (num [ "grammar"; key ]))
    [
      ("lines", 539); ("symbols", 140); ("attributes", 183);
      ("productions", 70); ("attribute_occurrences", 936);
      ("semantic_functions", 468); ("copy_rules", 225);
      ("implicit_copy_rules", 199);
    ];
  Alcotest.(check int) "plan.passes" 4 (num [ "plan"; "passes" ]);
  Alcotest.(check int) "subsumption.chosen" 37 (num [ "subsumption"; "chosen" ]);
  Alcotest.(check int)
    "metrics driver.runs" 1
    (num [ "metrics"; "driver.runs" ])

(* --report - and --trace-out - write their JSON to stdout; trace
   summaries and confirmations stay on stderr so the output pipes
   cleanly. *)
let test_report_stdout_diagnostics_stderr () =
  let rc, stdout, stderr =
    run [ "check"; "--report"; "-"; "--trace-attrs"; grammar ]
  in
  Alcotest.(check int) "exit code" 0 rc;
  if not (contains ~needle:"trace summary" stderr) then
    Alcotest.failf "trace summary not on stderr:\n%s" stderr;
  if contains ~needle:"trace summary" stdout then
    Alcotest.fail "trace summary leaked to stdout";
  (* stdout = the normal command output followed by the manifest JSON *)
  if not (contains ~needle:"ok — evaluable in 4 alternating passes" stdout)
  then Alcotest.failf "normal output missing from stdout:\n%s" stdout;
  let json_start =
    match String.index_opt stdout '{' with
    | Some i -> i
    | None -> Alcotest.fail "no JSON on stdout"
  in
  let j =
    Lg_support.Json_out.parse
      (String.sub stdout json_start (String.length stdout - json_start))
  in
  Alcotest.(check string)
    "the stdout document is the manifest" "check"
    (Lg_support.Json_out.to_str (Lg_support.Json_out.member_exn "command" j))

let test_trace_out_stdout () =
  let rc, stdout, stderr = run [ "check"; "--trace-out"; "-"; grammar ] in
  Alcotest.(check int) "exit code" 0 rc;
  if not (contains ~needle:"trace: wrote" stderr) then
    Alcotest.failf "confirmation not on stderr:\n%s" stderr;
  let json_start =
    match String.index_opt stdout '{' with
    | Some i -> i
    | None -> Alcotest.fail "no JSON on stdout"
  in
  let j =
    Lg_support.Json_out.parse
      (String.sub stdout json_start (String.length stdout - json_start))
  in
  if Lg_support.Json_out.to_list (Lg_support.Json_out.member_exn "traceEvents" j) = []
  then Alcotest.fail "trace on stdout has no events"

let test_report_subcommand () =
  with_manifest @@ fun path _ ->
  let ((_, stdout, _) as r) = run [ "report"; path ] in
  expect_ok "report" r;
  List.iter
    (fun fragment ->
      if not (contains ~needle:fragment stdout) then
        Alcotest.failf "report: missing %S:\n%s" fragment stdout)
    [ "grammar"; "symbols"; "plan"; "metrics"; "driver.runs" ]

(* Acceptance criterion: the diff gate exits non-zero on a degraded
   metric. *)
let test_diff_gate () =
  with_manifest @@ fun path j ->
  (* identical manifests pass *)
  let rc, stdout, _ = run_bench [ "diff"; path; path ] in
  Alcotest.(check int) "identical manifests: exit 0" 0 rc;
  if not (contains ~needle:"0 regressions" stdout) then
    Alcotest.failf "diff: unexpected stdout:\n%s" stdout;
  (* degrade one metric by 10x and diff again *)
  let degraded =
    let open Lg_support.Json_out in
    match j with
    | Obj members ->
        Obj
          (List.map
             (function
               | "metrics", Obj metrics ->
                   ( "metrics",
                     Obj
                       (List.map
                          (function
                            | "driver.runs", Num n -> ("driver.runs", Num (10.0 *. n))
                            | kv -> kv)
                          metrics) )
               | kv -> kv)
             members)
    | _ -> Alcotest.fail "manifest is not an object"
  in
  let bad = Filename.temp_file "cli_manifest" ".bad.json" in
  Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
  let oc = open_out bad in
  output_string oc (Lg_support.Json_out.to_string ~pretty:true degraded);
  close_out oc;
  let rc, stdout, _ = run_bench [ "diff"; path; bad ] in
  Alcotest.(check int) "degraded metric: exit 1" 1 rc;
  if not (contains ~needle:"REGRESSION" stdout)
     || not (contains ~needle:"metrics.driver.runs" stdout)
  then Alcotest.failf "diff: regression not reported:\n%s" stdout;
  (* a per-metric tolerance waives exactly that regression *)
  let rc, _, _ =
    run_bench
      [ "diff"; path; bad; "--tolerance"; "metrics.driver.runs=1000" ]
  in
  Alcotest.(check int) "tolerance override: exit 0" 0 rc

let test_stores_json () =
  let ((_, stdout, _) as r) = run [ "stores"; "--json" ] in
  expect_ok "stores --json" r;
  let j = Lg_support.Json_out.parse stdout in
  let names =
    List.map
      (fun s ->
        Lg_support.Json_out.to_str (Lg_support.Json_out.member_exn "name" s))
      (Lg_support.Json_out.to_list (Lg_support.Json_out.member_exn "stores" j))
  in
  Alcotest.(check (list string))
    "every store appears"
    (List.map (fun (name, _, _) -> name) Lg_apt.Aptfile.stores)
    names;
  match Lg_support.Json_out.member_exn "metrics" j with
  | Lg_support.Json_out.Obj _ -> ()
  | _ -> Alcotest.fail "stores --json: no metrics snapshot"

let test_transient_faults_absorbed () =
  (* acceptance criterion: transient EIO at a low rate never fails an
     evaluation — the retry policy absorbs it *)
  let ((_, _, _) as r) =
    run
      [
        "analyze"; "--apt-store"; "paged"; "--apt-faults"; "7:0.01:transient";
        grammar;
      ]
  in
  expect_ok "analyze with 1% transient faults" r

(* Golden pin of the linguist_jobs:1 document shape: a handwritten
   jobfile of every op, straight through `linguist batch`, and the
   results parsed back field by field. Runs the batch at two worker
   counts and demands byte-identical documents — the determinism
   guarantee the batch service documents. *)
let test_batch_jobfile_roundtrip () =
  let jobfile = Filename.temp_file "cli_jobs" ".json" in
  let oc = open_out_bin jobfile in
  Printf.fprintf oc
    {|{ "linguist_jobs": 1,
  "jobs": [
    { "id": "check-self", "op": "check", "file": %S },
    { "op": "analyze", "file": %S, "store": "paged", "page_size": 4096 }
  ] }
|}
    grammar grammar;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove jobfile) @@ fun () ->
  let run_batch jobs =
    let ((rc, stdout, stderr) as r) =
      run [ "batch"; jobfile; "--jobs"; string_of_int jobs ]
    in
    ignore rc;
    expect_ok (Printf.sprintf "batch --jobs %d" jobs) r;
    if not (contains ~needle:"2 jobs, 2 ok, 0 failed" stderr) then
      Alcotest.failf "batch summary missing from stderr:\n%s" stderr;
    stdout
  in
  let sequential = run_batch 0 and pooled = run_batch 2 in
  Alcotest.(check string)
    "pooled output is byte-identical to sequential" sequential pooled;
  let j = Lg_support.Json_out.parse sequential in
  Alcotest.(check int) "document version" 1
    (Lg_support.Json_out.to_int
       (Lg_support.Json_out.member_exn "linguist_batch" j));
  let jobs =
    Lg_support.Json_out.to_list (Lg_support.Json_out.member_exn "jobs" j)
  in
  Alcotest.(check (list string))
    "ids: explicit then positional" [ "check-self"; "job-2" ]
    (List.map
       (fun o ->
         Lg_support.Json_out.to_str (Lg_support.Json_out.member_exn "id" o))
       jobs);
  List.iter
    (fun o ->
      (match Lg_support.Json_out.member_exn "ok" o with
      | Lg_support.Json_out.Bool true -> ()
      | _ -> Alcotest.fail "every job should succeed");
      Alcotest.(check int) "exit 0" 0
        (Lg_support.Json_out.to_int (Lg_support.Json_out.member_exn "exit" o)))
    jobs;
  (* the analyze payload carries the self-description the report pins *)
  let analyze = List.nth jobs 1 in
  let payload = Lg_support.Json_out.member_exn "payload" analyze in
  if
    Lg_support.Json_out.to_int
      (Lg_support.Json_out.member_exn "productions" payload)
    <= 0
  then Alcotest.fail "analyze payload lost its production count"

let test_batch_failure_exit () =
  let jobfile = Filename.temp_file "cli_jobs" ".json" in
  let oc = open_out_bin jobfile in
  output_string oc
    {|{ "linguist_jobs": 1,
        "jobs": [ { "op": "check", "file": "/nonexistent.ag" } ] }|};
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove jobfile) @@ fun () ->
  let rc, stdout, stderr = run [ "batch"; jobfile ] in
  if rc = 0 then Alcotest.fail "a failed job must fail the batch exit";
  if not (contains ~needle:"1 failed" stderr) then
    Alcotest.failf "failure count missing from summary:\n%s" stderr;
  (* the document still reports the job, with its error *)
  let j = Lg_support.Json_out.parse stdout in
  match
    Lg_support.Json_out.to_list (Lg_support.Json_out.member_exn "jobs" j)
  with
  | [ o ] -> (
      match Lg_support.Json_out.member_exn "ok" o with
      | Lg_support.Json_out.Bool false -> ()
      | _ -> Alcotest.fail "job must be recorded as failed")
  | _ -> Alcotest.fail "one job in, one outcome out"

let test_batch_malformed_jobfile () =
  let jobfile = Filename.temp_file "cli_jobs" ".json" in
  let oc = open_out_bin jobfile in
  output_string oc {|{ "linguist_jobs": 99, "jobs": [] }|};
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove jobfile) @@ fun () ->
  let rc, _, stderr = run [ "batch"; jobfile ] in
  if rc = 0 then Alcotest.fail "malformed jobfile must be rejected";
  if not (contains ~needle:"version" stderr) then
    Alcotest.failf "rejection should name the version:\n%s" stderr

(* A tenants file serve would refuse is a configuration error, reported
   before any socket opens: no listening line, not an uncaught exception
   (exit 125). *)
let test_serve_refuses_tenants_file () =
  let ledger = Filename.temp_file "cli_tenants" ".json" in
  let oc = open_out_bin ledger in
  output_string oc {|{"x":1}|};
  close_out oc;
  let socket = Filename.temp_file "cli_serve" ".sock" in
  Sys.remove socket;
  Fun.protect ~finally:(fun () -> Sys.remove ledger) @@ fun () ->
  let ((_, _, stderr) as r) =
    run [ "serve"; "--socket"; socket; "--tenants-file"; ledger ]
  in
  expect_cli_error "serve --tenants-file" "not a linguist_tenants snapshot" r;
  Alcotest.(check bool) "no listening line" false
    (contains ~needle:"listening" stderr);
  Alcotest.(check bool) "no socket" false (Sys.file_exists socket)

let () =
  Alcotest.run "cli"
    [
      ( "commands",
        [
          Alcotest.test_case "stores lists the registry" `Quick
            test_stores_listing;
          Alcotest.test_case "check accepts linguist.ag" `Quick test_check_ok;
          Alcotest.test_case "compile writes the listing and passN.pas"
            `Quick test_compile_outputs;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "--trace-out writes valid Chrome JSON" `Quick
            test_trace_out;
          Alcotest.test_case "--trace-attrs prints a summary" `Quick
            test_trace_attrs_summary;
          Alcotest.test_case "--trace-out - streams to stdout" `Quick
            test_trace_out_stdout;
        ] );
      ( "manifests",
        [
          Alcotest.test_case "--report reproduces the self-description"
            `Quick test_report_manifest;
          Alcotest.test_case "--report -: JSON on stdout, diagnostics on stderr"
            `Quick test_report_stdout_diagnostics_stderr;
          Alcotest.test_case "report renders a manifest" `Quick
            test_report_subcommand;
          Alcotest.test_case "diff gate fails on a degraded metric" `Quick
            test_diff_gate;
          Alcotest.test_case "stores --json" `Quick test_stores_json;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "unknown store" `Quick test_bad_store;
          Alcotest.test_case "removed store" `Quick test_removed_store;
          Alcotest.test_case "invalid page size" `Quick test_bad_page_size;
          Alcotest.test_case "unknown flag" `Quick test_unknown_flag;
          Alcotest.test_case "missing input file" `Quick test_missing_file;
          Alcotest.test_case "invalid fault spec" `Quick test_bad_fault_spec;
          Alcotest.test_case "check refuses --apt-store" `Quick
            test_front_end_refuses_store;
          Alcotest.test_case "serve refuses a bad tenants file" `Quick
            test_serve_refuses_tenants_file;
          Alcotest.test_case "unwritable output paths" `Quick
            test_unwritable_outputs;
          Alcotest.test_case "unwritable generate and coordinate outputs"
            `Quick test_unwritable_generated_outputs;
        ] );
      ( "apt-fsck",
        [
          Alcotest.test_case "corrupt record exits 40" `Quick
            test_corrupt_record_exit_40;
          Alcotest.test_case "truncated file exits 41" `Quick
            test_truncated_file_exit_41;
          Alcotest.test_case "version mismatch exits 42" `Quick
            test_version_mismatch_exit_42;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "exhausted retries exit 43" `Quick
            test_exhausted_retries_exit_43;
          Alcotest.test_case "write faults fail paged typed" `Quick
            test_write_faults_honoured;
          Alcotest.test_case "depth budget exits 44" `Quick
            test_depth_budget_exit_44;
          Alcotest.test_case "node budget exits 44" `Quick
            test_node_budget_exit_44;
          Alcotest.test_case "low-rate transient faults absorbed" `Quick
            test_transient_faults_absorbed;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobfile golden round-trip, deterministic" `Quick
            test_batch_jobfile_roundtrip;
          Alcotest.test_case "failed job fails the batch exit" `Quick
            test_batch_failure_exit;
          Alcotest.test_case "malformed jobfile rejected" `Quick
            test_batch_malformed_jobfile;
        ] );
    ]
