(* End-to-end tests of the installed command-line interface: golden output
   for the `stores` listing, the --trace-out / --trace-attrs telemetry
   flags, and the diagnostics (exit code + stderr) for invalid invocations.

   Runs the real executable; dune's deps field makes ../bin/linguist_cli.exe
   and the promoted grammars available in the test's build directory. *)

(* Resolve siblings of this test binary inside _build, so the suite works
   under both `dune runtest` (cwd = build dir) and `dune exec`. *)
let build_root = Filename.dirname (Filename.dirname Sys.executable_name)
let cli = Filename.concat build_root (Filename.concat "bin" "linguist_cli.exe")

let grammar =
  Filename.concat build_root (Filename.concat "grammars" "linguist.ag")

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
    "the builtin stores"
    [ "mem"; "paged"; "zip" ]
    (Lg_apt.Store_registry.names ());
  if not (contains ~needle:"registered APT stores" stdout) then
    Alcotest.failf "stores: missing header:\n%s" stdout;
  (* golden against the registry itself: every store is listed with its
     description, so the listing cannot rot as stores are added *)
  List.iter
    (fun name ->
      if not (contains ~needle:("\n  " ^ name) stdout) then
        Alcotest.failf "stores: %s not listed:\n%s" name stdout;
      match Lg_apt.Store_registry.description name with
      | Some d when not (contains ~needle:d stdout) ->
          Alcotest.failf "stores: description of %s not listed" name
      | _ -> ())
    (Lg_apt.Store_registry.names ())

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

(* a store name pruned from the registry is refused like any unknown
   one, with the list of the stores that remain — [faulty] too, whose
   fault injection [paged] applies itself *)
let test_removed_store () =
  List.iter
    (fun store ->
      expect_cli_error ("--apt-store " ^ store)
        (Printf.sprintf "unknown APT store %S (registered: %s" store
           (String.concat ", " (Lg_apt.Store_registry.names ())))
        (run [ "analyze"; "--apt-store"; store; grammar ]))
    [ "disk"; "faulty" ]

let test_bad_page_size () =
  expect_cli_error "--apt-page-size 0" "--apt-page-size must be positive"
    (run [ "analyze"; "--apt-page-size"; "0"; grammar ])

let test_unknown_flag () =
  expect_cli_error "unknown option" "unknown option '--no-such-flag'"
    (run [ "check"; "--no-such-flag"; grammar ])

let test_missing_file () =
  expect_cli_error "missing file" "no '/no/such/file.ag' file"
    (run [ "check"; "/no/such/file.ag" ])

let test_bad_fault_spec () =
  expect_cli_error "--apt-faults nonsense" "--apt-faults"
    (run [ "analyze"; "--apt-faults"; "nonsense"; grammar ])

(* the store is a setting of an evaluator run: commands that only run
   the front end do not take it *)
let test_front_end_refuses_store () =
  expect_cli_error "check --apt-store" "unknown option '--apt-store'"
    (run [ "check"; "--apt-store"; "paged"; grammar ])

(* ----- typed APT failures: stable exit codes, pinned forever ----- *)

(* A three-record framed APT file, optionally damaged. Record offsets:
   4, 23, 42; total 63 bytes. *)
let write_apt path ~damage =
  let open Lg_apt.Apt_store in
  let b = Buffer.create 64 in
  Buffer.add_string b Framed.magic;
  List.iter
    (fun p ->
      let header, trailer = Record_codec.frame p in
      Buffer.add_string b header;
      Buffer.add_string b p;
      Buffer.add_string b trailer)
    [ "one"; "two"; "three" ];
  let data = damage (Buffer.contents b) in
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let patch off f data =
  let b = Bytes.of_string data in
  Bytes.set b off (Char.chr (f (Char.code (Bytes.get b off))));
  Bytes.to_string b

let with_apt damage f =
  let path = Filename.temp_file "cli_apt" ".apt" in
  write_apt path ~damage;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* apt-fsck prints the report (including the failure) on stdout and exits
   with the stable code of the first integrity failure. *)
let expect_fsck name code fragment (rc, stdout, stderr) =
  Alcotest.(check int) (name ^ ": exit code") code rc;
  if not (contains ~needle:fragment stdout) then
    Alcotest.failf "%s: stdout missing %S:\n%s\nstderr:%s" name fragment
      stdout stderr

let test_fsck_clean () =
  with_apt Fun.id @@ fun path ->
  let ((_, stdout, _) as r) = run [ "apt-fsck"; path ] in
  expect_ok "apt-fsck clean" r;
  if not (contains ~needle:"3 valid records, 63 of 63 bytes valid" stdout)
     || not (contains ~needle:"file is clean" stdout)
  then Alcotest.failf "apt-fsck clean: unexpected report:\n%s" stdout

let test_fsck_corrupt_exit_40 () =
  with_apt (patch (42 + 8 + 1) (fun c -> c lxor 0x04)) @@ fun path ->
  expect_fsck "corrupt record" 40 "corrupt APT record"
    (run [ "apt-fsck"; path ])

let test_fsck_truncated_exit_41 () =
  with_apt (fun d -> String.sub d 0 (String.length d - 3)) @@ fun path ->
  expect_fsck "truncated file" 41 "truncated APT file"
    (run [ "apt-fsck"; path ])

(* A signature that is not APT1 — one flipped bit, two zeroed bytes, or
   a file in the unchecked seed layout ([u32 len | payload | u32 len], no
   signature at all) — is refused with exit 42, and there is no valid
   prefix for --recover to write. *)
let test_fsck_version_exit_42 () =
  List.iter
    (fun (name, damage) ->
      with_apt damage @@ fun path ->
      let out = Filename.temp_file "cli_apt" ".recovered" in
      Sys.remove out;
      let ((_, stdout, _) as r) = run [ "apt-fsck"; path; "--recover"; out ] in
      expect_fsck name 42 "APT version mismatch" r;
      if not (contains ~needle:"nothing recovered" stdout) then
        Alcotest.failf "%s: unexpected stdout:\n%s" name stdout;
      if Sys.file_exists out then begin
        Sys.remove out;
        Alcotest.failf "%s: --recover wrote a file" name
      end)
    [
      ("version mismatch", patch 2 (fun c -> c lxor 0x01));
      ("zeroed signature", fun d -> patch 0 (fun _ -> 0) (patch 1 (fun _ -> 0) d));
      ("seed layout", fun _ -> "\x05\x00\x00\x00alpha\x05\x00\x00\x00");
    ]

let test_fsck_recover () =
  with_apt (patch (42 + 8 + 1) (fun c -> c lxor 0x04)) @@ fun path ->
  let out = Filename.temp_file "cli_apt" ".recovered" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  (* dirty input: report + recovery, but still the failure's exit code *)
  let ((rc, stdout, _) as r) = run [ "apt-fsck"; path; "--recover"; out ] in
  ignore r;
  Alcotest.(check int) "recover exit code" 40 rc;
  if not (contains ~needle:("recovered 2 records to " ^ out) stdout) then
    Alcotest.failf "apt-fsck --recover: unexpected stdout:\n%s" stdout;
  (* the recovered file scans clean *)
  let ((_, stdout2, _) as r2) = run [ "apt-fsck"; out ] in
  expect_ok "apt-fsck recovered" r2;
  if not (contains ~needle:"file is clean" stdout2) then
    Alcotest.failf "recovered file not clean:\n%s" stdout2

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

(* Write-side kinds damage the medium under paged and zip alike, and the
   evaluation fails typed instead of finishing on a damaged file. *)
let test_write_faults_honoured () =
  List.iter
    (fun store ->
      let rc, _, stderr =
        run
          [
            "analyze"; "--apt-store"; store; "--apt-faults"; "1:1.0:torn,flip";
            grammar;
          ]
      in
      if rc <> 40 && rc <> 41 then
        Alcotest.failf "%s: expected exit 40 or 41, got %d:\n%s" store rc
          stderr)
    [ "paged"; "zip" ]

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
    "every registered store appears"
    (Lg_apt.Store_registry.names ())
    names;
  match Lg_support.Json_out.member_exn "metrics" j with
  | Lg_support.Json_out.Obj _ -> ()
  | _ -> Alcotest.fail "stores --json: no metrics snapshot"

let test_fsck_json () =
  with_apt (fun d -> String.sub d 0 (String.length d - 3)) @@ fun path ->
  let rc, stdout, _ = run [ "apt-fsck"; "--json"; path ] in
  Alcotest.(check int) "still the stable exit code" 41 rc;
  let j = Lg_support.Json_out.parse stdout in
  let num k = Lg_support.Json_out.to_int (Lg_support.Json_out.member_exn k j) in
  Alcotest.(check int) "exit_code field" 41 (num "exit_code");
  Alcotest.(check int) "two records survive" 2
    (List.length
       (Lg_support.Json_out.to_list (Lg_support.Json_out.member_exn "records" j)));
  (match Lg_support.Json_out.member_exn "clean" j with
  | Lg_support.Json_out.Bool false -> ()
  | _ -> Alcotest.fail "clean should be false");
  let metrics = Lg_support.Json_out.member_exn "metrics" j in
  Alcotest.(check int)
    "salvage.scans metric" 1
    (Lg_support.Json_out.to_int
       (Lg_support.Json_out.member_exn "salvage.scans" metrics))

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
          Alcotest.test_case "apt-fsck --json" `Quick test_fsck_json;
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
        ] );
      ( "apt-fsck",
        [
          Alcotest.test_case "clean file" `Quick test_fsck_clean;
          Alcotest.test_case "corrupt record exits 40" `Quick
            test_fsck_corrupt_exit_40;
          Alcotest.test_case "truncated file exits 41" `Quick
            test_fsck_truncated_exit_41;
          Alcotest.test_case "version mismatch exits 42" `Quick
            test_fsck_version_exit_42;
          Alcotest.test_case "--recover salvages the prefix" `Quick
            test_fsck_recover;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "exhausted retries exit 43" `Quick
            test_exhausted_retries_exit_43;
          Alcotest.test_case "write faults fail paged and zip typed" `Quick
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
