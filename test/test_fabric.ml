(* The distributed evaluation fabric: the shard planner's affinity and
   spill policy, the coordinator's pull order, the pool's priority
   lanes, windowed SLO histograms, the persistent tenant ledger,
   postmortem retention, the grammar-shipping handshake against a real
   TCP serve, coordinator byte-identity with the sequential baseline,
   and re-dispatch on worker loss and on typed worker crashes. *)

open Lg_server
open Lg_fabric

let calc_source = "x := 1 + 2;\nprint x;\n"

(* ---------------- shard planner ---------------- *)

let test_shard_affinity () =
  let items =
    [ Some "a"; Some "b"; Some "a"; None; Some "b"; Some "a"; None ]
  in
  let plan = Shard.plan ~workers:3 ~affinity:Fun.id items in
  (* every index exactly once *)
  let all =
    List.sort compare (Array.to_list plan.Shard.assignments |> List.concat)
  in
  Alcotest.(check (list int)) "partition" [ 0; 1; 2; 3; 4; 5; 6 ] all;
  (* co-location: same key, same worker (no spill here: target = 3,
     biggest group is 3) *)
  let worker_of =
    let t = Hashtbl.create 8 in
    Array.iteri
      (fun w indices -> List.iter (fun i -> Hashtbl.replace t i w) indices)
      plan.Shard.assignments;
    Hashtbl.find t
  in
  Alcotest.(check int) "a stays together" (worker_of 0) (worker_of 2);
  Alcotest.(check int) "a stays together" (worker_of 0) (worker_of 5);
  Alcotest.(check int) "b stays together" (worker_of 1) (worker_of 4);
  Alcotest.(check int) "4 groups" 4 plan.Shard.groups;
  Alcotest.(check int) "no spill" 0 plan.Shard.spilled;
  (* determinism: same inputs, same plan *)
  let again = Shard.plan ~workers:3 ~affinity:Fun.id items in
  Alcotest.(check bool) "deterministic" true (plan = again)

let test_shard_spill () =
  (* one hot key over 10 items, 2 workers: the balanced share is 5, so
     the group must split in two rather than serialize a worker *)
  let items = List.init 10 (fun _ -> Some "hot") in
  let plan = Shard.plan ~workers:2 ~affinity:Fun.id items in
  Alcotest.(check int) "one group" 1 plan.Shard.groups;
  Alcotest.(check int) "one spill" 1 plan.Shard.spilled;
  Array.iter
    (fun indices ->
      Alcotest.(check int) "balanced" 5 (List.length indices))
    plan.Shard.assignments

(* ---------------- pull order ---------------- *)

let ticket ?digest ?(interactive = false) ?avoid name =
  ( {
      Coordinator.t_digest = digest;
      t_interactive = interactive;
      t_avoid = avoid;
    },
    name )

(* worker 0 holds "a", worker 1 holds "b" *)
let holds w d = (w, d) = (0, "a") || (w, d) = (1, "b")

let pick ?(worker = 0) ?(others = [ 1 ]) queue =
  match Coordinator.next ~worker ~others ~holds queue with
  | Some ((_, name), rest) -> (name, List.map snd rest)
  | None -> ("none", List.map snd queue)

let test_pull_order () =
  let check msg want queue =
    Alcotest.(check string) msg want (fst (pick queue))
  in
  check "held beats unheld" "held"
    [ ticket ~digest:"c" "unheld"; ticket ~digest:"a" "held" ];
  check "unheld beats held elsewhere" "unheld"
    [ ticket ~digest:"b" "theirs"; ticket ~digest:"c" "unheld" ];
  check "no digest ranks as unheld" "plain"
    [ ticket ~digest:"b" "theirs"; ticket "plain" ];
  check "lane head when all are held elsewhere" "first"
    [ ticket ~digest:"b" "first"; ticket ~digest:"b" "second" ];
  check "earliest within a rank" "c1"
    [ ticket ~digest:"c" "c1"; ticket ~digest:"d" "d1" ];
  check "interactive beats bulk" "edit"
    [ ticket ~digest:"a" "bulk"; ticket ~digest:"b" ~interactive:true "edit" ];
  check "bulk once the interactive lane has nothing eligible" "bulk"
    [ ticket ~digest:"a" ~interactive:true ~avoid:0 "edit";
      ticket ~digest:"b" "bulk" ];
  (* the worker that failed a job typed never gets it back while
     another worker is open — only once it is the last one standing *)
  let failed = [ ticket ~digest:"a" ~avoid:0 "failed" ] in
  check "avoided while another is open" "none" failed;
  Alcotest.(check string) "the other worker takes it" "failed"
    (fst (pick ~worker:1 ~others:[ 0 ] failed));
  Alcotest.(check string) "last worker standing takes it" "failed"
    (fst (pick ~others:[] failed));
  (* the chosen job leaves the queue, the rest keep their order *)
  Alcotest.(check (pair string (list string))) "rest in order"
    ("held", [ "x"; "y" ])
    (pick [ ticket "x"; ticket ~digest:"a" "held"; ticket "y" ]);
  Alcotest.(check (pair string (list string))) "empty queue" ("none", [])
    (pick [])

(* ---------------- priority lanes ---------------- *)

let test_pool_lane_preemption () =
  let pool = Pool.create ~workers:1 ~queue_capacity:64 () in
  Fun.protect ~finally:(fun () -> Pool.drain pool) @@ fun () ->
  let order = ref [] in
  let lock = Mutex.create () in
  let note id =
    Mutex.lock lock;
    order := id :: !order;
    Mutex.unlock lock
  in
  let gate = Atomic.make false in
  let blocker =
    match
      Pool.submit pool (fun () ->
          while not (Atomic.get gate) do
            Domain.cpu_relax ()
          done)
    with
    | Ok h -> h
    | Error _ -> Alcotest.fail "blocker rejected"
  in
  while Pool.queue_depth pool > 0 do
    Domain.cpu_relax ()
  done;
  (* queue bulk first, then interactive, while the one worker is held:
     dequeue must serve the interactive lane first anyway *)
  let submit lane id =
    match Pool.submit ~lane pool (fun () -> note id) with
    | Ok h -> h
    | Error _ -> Alcotest.failf "%s rejected" id
  in
  (* sequenced lets, not a list literal: OCaml evaluates constructor
     arguments right-to-left, which would reverse the submissions *)
  let b1 = submit Pool.Bulk "b1" in
  let b2 = submit Pool.Bulk "b2" in
  let i1 = submit Pool.Interactive "i1" in
  let i2 = submit Pool.Interactive "i2" in
  let handles = [ b1; b2; i1; i2 ] in
  Atomic.set gate true;
  (match Pool.await blocker with
  | Ok () -> ()
  | Error e -> Alcotest.failf "blocker raised %s" (Printexc.to_string e));
  List.iter (fun h -> ignore (Pool.await h)) handles;
  Alcotest.(check (list string))
    "interactive preempts bulk at dequeue"
    [ "i1"; "i2"; "b1"; "b2" ]
    (List.rev !order)

(* ---------------- windowed SLO histograms ---------------- *)

let test_windowed_histogram () =
  let now = ref 0.0 in
  let m = Lg_support.Metrics.create ~clock:(fun () -> !now) () in
  let count () =
    match Lg_support.Metrics.find m "w.recent" with
    | Some (Lg_support.Metrics.Histogram h) -> h.Lg_support.Metrics.h_count
    | _ -> Alcotest.fail "windowed histogram missing"
  in
  Lg_support.Metrics.observe_window m ~window:10.0 "w.recent" 0.5;
  Lg_support.Metrics.observe_window m ~window:10.0 "w.recent" 0.5;
  Alcotest.(check int) "current frame" 2 (count ());
  (* one window later: the old frame is still merged in (rolling pair) *)
  now := 12.0;
  Lg_support.Metrics.observe_window m ~window:10.0 "w.recent" 0.5;
  Alcotest.(check int) "previous + current" 3 (count ());
  (* two more windows of silence: both frames age out *)
  now := 35.0;
  Alcotest.(check int) "gap clears the window" 0 (count ())

(* ---------------- persistent tenant ledger ---------------- *)

let test_ledger_roundtrip () =
  let path = Filename.temp_file "fabric_ledger" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let l = Session.create_cache () in
  Session.charge l ~digest:"d1" ~label:"translator:a.ag" ~ok:true ~exit_code:0
    ~queue_wait:0.5 ~service:1.0;
  Session.charge l ~digest:"d1" ~label:"translator:a.ag" ~ok:false
    ~exit_code:51 ~queue_wait:0.25 ~service:0.0;
  Session.charge l ~digest:"d2" ~label:"language:desk_calc" ~ok:true
    ~exit_code:0 ~queue_wait:0.0 ~service:0.5;
  (match Ledger.save l ~path with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  let fresh = Session.create_cache () in
  (match Ledger.load fresh ~path with
  | Ok n -> Alcotest.(check int) "rows merged" 2 n
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  Alcotest.(check bool)
    "round-trips" true
    (Session.tenants l = Session.tenants fresh);
  (* merging is additive: counts double, labels stay *)
  (match Ledger.load fresh ~path with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "re-load failed: %s" msg);
  (match Session.tenants fresh with
  | [ (_, d2, _); (_, d1, _) ] ->
      Alcotest.(check int) "d2 doubled" 2 d2.Session.t_jobs;
      Alcotest.(check int) "d1 doubled" 4 d1.Session.t_jobs;
      Alcotest.(check (list (pair int int))) "failure codes add"
        [ (51, 2) ] d1.Session.t_failures
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  (* a non-snapshot file is an error, not a guess *)
  let oc = open_out path in
  output_string oc "{\"not\": \"a ledger\"}";
  close_out oc;
  match Ledger.load (Session.create_cache ()) ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a load error on foreign JSON"

(* the tenants file comes in from disk: a bad value anywhere refuses the
   whole document, and a refused load merges nothing *)
let test_ledger_refuses_bad_rows () =
  let path = Filename.temp_file "fabric_ledger" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let good =
    {|{ "digest": "d1", "label": "a", "jobs": 2, "ok": 1,
        "failures": { "51": 1 }, "queue_wait_seconds": 0.5,
        "service_seconds": 1 }|}
  in
  let sessions = Session.create_cache () in
  let load rows =
    let oc = open_out path in
    Printf.fprintf oc {|{ "linguist_tenants": 1, "tenants": [ %s ] }|}
      (String.concat ", " rows);
    close_out oc;
    Ledger.load sessions ~path
  in
  (match load [ good ] with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected one row, merged %d" n
  | Error msg -> Alcotest.failf "good row refused: %s" msg);
  let before = Session.tenants sessions in
  List.iter
    (fun bad ->
      (* the bad row comes third, after two good ones *)
      match load [ good; good; bad ] with
      | Ok _ -> Alcotest.failf "accepted %s" bad
      | Error _ ->
          Alcotest.(check bool)
            ("unchanged after " ^ bad)
            true
            (Session.tenants sessions = before))
    [
      {|{ "digest": "d2", "jobs": -3 }|};
      {|{ "digest": "d2", "jobs": 2.5 }|};
      {|{ "digest": "d2", "jobs": "x" }|};
      {|{ "digest": "d2", "jobs": 1e300 }|};
      {|{ "digest": "d2", "ok": -1 }|};
      {|{ "digest": "d2", "failures": { "51": -1 } }|};
      {|{ "digest": "d2", "failures": { "51": 0.5 } }|};
      {|{ "digest": "d2", "failures": { "x": 1 } }|};
      {|{ "digest": "d2", "failures": { "-2": 1 } }|};
      {|{ "digest": "d2", "failures": [ 1 ] }|};
      {|{ "digest": "d2", "queue_wait_seconds": -0.5 }|};
      {|{ "digest": "d2", "service_seconds": 1e400 }|};
      {|{ "digest": "d2", "service_seconds": "1" }|};
      {|{ "digest": "d2", "label": 7 }|};
      {|{ "digest": 7 }|};
      {|{ "jobs": 1 }|};
      {|[ "d2" ]|};
    ]

(* ---------------- postmortem retention ---------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "fabric_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  (* recursive: the coordinator test lays a corpus out in a subdirectory *)
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () ->
      try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_postmortem_retention () =
  with_temp_dir @@ fun dir ->
  let write name mtime =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc "{}";
    close_out oc;
    Unix.utimes path mtime mtime
  in
  List.iteri
    (fun i name -> write name (1000.0 +. float_of_int i))
    [
      "postmortem-a-0.json";
      "postmortem-b-1.json";
      "postmortem-c-2.json";
      "postmortem-d-3.json";
    ];
  write "not-a-dump.json" 2000.0;
  let metrics = Lg_support.Metrics.create () in
  let pruned = Server.prune_postmortems ~dir ~keep:2 ~metrics in
  Alcotest.(check int) "pruned the oldest two" 2 pruned;
  let left = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check (list string))
    "newest kept, foreign files untouched"
    [ "not-a-dump.json"; "postmortem-c-2.json"; "postmortem-d-3.json" ]
    left;
  match Lg_support.Metrics.find metrics "server.postmortems_pruned" with
  | Some (Lg_support.Metrics.Counter 2) -> ()
  | v ->
      Alcotest.failf "server.postmortems_pruned: %s"
        (match v with Some _ -> "wrong value" | None -> "missing")

(* ---------------- in-process TCP serve helpers ---------------- *)

let start_tcp_serve ?metrics ?tenants_file ?chaos ~dir name =
  let socket = Filename.concat dir (name ^ ".sock") in
  let m = Mutex.create () and c = Condition.create () in
  let port = ref 0 in
  let thread =
    Thread.create
      (fun () ->
        Server.serve ?metrics ?tenants_file ?chaos ~workers:1
          ~tcp:"127.0.0.1:0"
          ~on_tcp_port:(fun p ->
            Mutex.lock m;
            port := p;
            Condition.signal c;
            Mutex.unlock m)
          ~socket ())
      ()
  in
  Mutex.lock m;
  while !port = 0 do
    Condition.wait c m
  done;
  Mutex.unlock m;
  (thread, Transport.Tcp ("127.0.0.1", !port))

let shutdown_serve (thread, endpoint) =
  ignore
    (Server.request_endpoint ~endpoint
       (Lg_support.Json_out.parse {|{"op":"shutdown"}|}));
  Thread.join thread

let jstr doc name =
  match Lg_support.Json_out.member name doc with
  | Some (Lg_support.Json_out.Str s) -> s
  | _ -> ""

let jerror doc = jstr doc "error"

let response_ok doc =
  match Lg_support.Json_out.member "ok" doc with
  | Some (Lg_support.Json_out.Bool b) -> b
  | _ -> false

(* ---------------- grammar-shipping handshake ---------------- *)

let test_grammar_handshake () =
  with_temp_dir @@ fun dir ->
  let open Lg_support.Json_out in
  let metrics = Lg_support.Metrics.create () in
  let server = start_tcp_serve ~metrics ~dir "hs" in
  let _, endpoint = server in
  Fun.protect ~finally:(fun () -> ()) @@ fun () ->
  let req doc = Server.request_endpoint ~endpoint doc in
  (* a corpus grammar: translator sessions built from shipped .ag text
     use the symbolic scanner, so the input is terminal names *)
  let built =
    Lg_corpus.Corpus_gen.build_exn
      (Lg_corpus.Corpus_gen.generate ~name:"ship"
         (Lg_corpus.Corpus_gen.config_of_profile Lg_corpus.Corpus_gen.Small)
         ~seed:7)
  in
  let source = built.Lg_corpus.Corpus_gen.b_grammar.Lg_corpus.Corpus_gen.g_source in
  let input seed = Lg_corpus.Corpus_gen.sentence built ~seed ~size:20 in
  let digest = Session.digest ~kind:"translator" ~source in
  let fabric_job id input =
    Obj
      [
        ("op", Str "fabric_job");
        ("lane", Str "bulk");
        ("session", Str digest);
        ( "job",
          Jobfile.job_to_json
            (Jobfile.make ~id ~source:input
               ~op:(Jobfile.Translate (Jobfile.Grammar "remote/ship.ag"))
               ~file:(id ^ ".txt") ()) );
      ]
  in
  (* 1. the worker has never seen this grammar: typed miss, not a guess *)
  let miss = req (fabric_job "t1" (input 1)) in
  Alcotest.(check string) "grammar_miss" "grammar_miss" (jerror miss);
  Alcotest.(check string) "miss names the digest" digest (jstr miss "digest");
  let have =
    req (Obj [ ("op", Str "grammar_have"); ("digest", Str digest) ])
  in
  (match member "have" have with
  | Some (Bool false) -> ()
  | _ -> Alcotest.fail "grammar_have should answer false before the put");
  (* 2. a shipment whose bytes don't match the claimed digest is refused *)
  let bad =
    req
      (Obj
         [
           ("op", Str "grammar_put");
           ("digest", Str digest);
           ("name", Str "ship.ag");
           ("source", Str (source ^ "(* tampered *)"));
         ])
  in
  Alcotest.(check bool) "tampered put refused" false (response_ok bad);
  (* 3. the honest put lands, and the job then runs to completion *)
  let put =
    req
      (Obj
         [
           ("op", Str "grammar_put");
           ("digest", Str digest);
           ("name", Str "ship.ag");
           ("source", Str source);
         ])
  in
  Alcotest.(check bool) "put accepted" true (response_ok put);
  let ran = req (fabric_job "t1" (input 1)) in
  if not (response_ok ran) then
    Alcotest.failf "job failed after put: %s"
      (Lg_support.Json_out.to_string ran);
  (* 4. a second job on the same grammar reuses the built session *)
  let again = req (fabric_job "t2" (input 2)) in
  Alcotest.(check bool) "second job ok" true (response_ok again);
  shutdown_serve server;
  (match Lg_support.Metrics.find metrics "server.session_builds" with
  | Some (Lg_support.Metrics.Counter 1) -> ()
  | Some (Lg_support.Metrics.Counter n) ->
      Alcotest.failf "grammar built %d times, want once" n
  | _ -> Alcotest.fail "server.session_builds missing");
  match Lg_support.Metrics.find metrics "server.grammar_puts" with
  | Some (Lg_support.Metrics.Counter 1) -> ()
  | _ -> Alcotest.fail "server.grammar_puts should be 1"

(* ---------------- coordinator byte-identity ---------------- *)

let test_coordinator_byte_identity () =
  with_temp_dir @@ fun dir ->
  let corpus_dir = Filename.concat dir "corpus" in
  let corpus =
    Lg_corpus.Emit.write ~dir:corpus_dir
      {
        Lg_corpus.Emit.default with
        Lg_corpus.Emit.s_grammars = 4;
        s_inputs = 2;
        s_fault_every = 0;
      }
  in
  let jobs = corpus.Lg_corpus.Emit.c_jobs in
  let old_cwd = Sys.getcwd () in
  Sys.chdir corpus_dir;
  Fun.protect ~finally:(fun () -> Sys.chdir old_cwd) @@ fun () ->
  let m1 = Lg_support.Metrics.create () and m2 = Lg_support.Metrics.create () in
  let w1 = start_tcp_serve ~metrics:m1 ~dir "bi1" in
  let w2 = start_tcp_serve ~metrics:m2 ~dir "bi2" in
  let report =
    Coordinator.run ~workers:[ snd w1; snd w2 ] jobs
  in
  shutdown_serve w1;
  shutdown_serve w2;
  let doc s =
    Lg_support.Json_out.to_string (Batch.to_json ~timings:false s)
  in
  let seq =
    Batch.run_sequential ~metrics:(Lg_support.Metrics.create ()) jobs
  in
  Alcotest.(check string)
    "coordinator results byte-identical to sequential" (doc seq)
    (doc report.Coordinator.summary);
  Alcotest.(check int) "nothing redispatched" 0 report.Coordinator.redispatched;
  (* builds-once: whichever jobs the pull order gave a worker, its
     session_builds equals the distinct session digests it was sent *)
  List.iteri
    (fun i (w : Coordinator.worker_report) ->
      Alcotest.(check int)
        (Printf.sprintf "worker %d builds each grammar once" i)
        w.Coordinator.w_grammars w.Coordinator.w_session_builds)
    report.Coordinator.workers

(* ---------------- worker loss: re-dispatch, zero job loss ------------ *)

let test_worker_loss_redispatch () =
  with_temp_dir @@ fun dir ->
  (* a protocol-dead stub: accepts connections and slams them shut, so
     every request fails mid-exchange and the transport retry budget
     declares the worker lost *)
  let stub_fd, stub_ep = Transport.listen (Transport.Tcp ("127.0.0.1", 0)) in
  let stub_stop = Atomic.make false in
  let stub =
    Thread.create
      (fun () ->
        while not (Atomic.get stub_stop) do
          match Unix.select [ stub_fd ] [] [] 0.1 with
          | [ _ ], _, _ ->
              let fd, _ = Unix.accept stub_fd in
              Unix.close fd
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        Unix.close stub_fd)
      ()
  in
  let real = start_tcp_serve ~dir "loss" in
  let jobs =
    List.init 6 (fun i ->
        Jobfile.make
          ~id:(Printf.sprintf "calc-%d" i)
          ~source:calc_source
          ~op:(Jobfile.Translate (Jobfile.Language "desk_calc"))
          ~file:(Printf.sprintf "in-%d.calc" i)
          ())
  in
  let report =
    Coordinator.run ~attempts:2 ~workers:[ stub_ep; snd real ] jobs
  in
  Atomic.set stub_stop true;
  Thread.join stub;
  shutdown_serve real;
  Alcotest.(check int) "zero jobs lost" 6
    (List.length report.Coordinator.summary.Batch.outcomes);
  Alcotest.(check int) "every job answered ok" 6
    report.Coordinator.summary.Batch.n_ok;
  if report.Coordinator.redispatched < 1 then
    Alcotest.fail "expected re-dispatch off the dead worker";
  match report.Coordinator.workers with
  | [ dead; alive ] ->
      Alcotest.(check bool) "stub reported lost" true dead.Coordinator.w_lost;
      Alcotest.(check bool) "survivor alive" false alive.Coordinator.w_lost;
      Alcotest.(check int) "survivor answered everything" 6
        alive.Coordinator.w_completed
  | _ -> Alcotest.fail "expected two worker reports"

(* a worker whose serve crashes every job (a typed exit 51) beside a
   healthy one: each crashed job goes back on the queue marked to avoid
   the crashing worker, so the healthy one answers everything *)
let test_crash_redispatch () =
  with_temp_dir @@ fun dir ->
  let chaos =
    Chaos.create { Chaos.c_seed = 1; c_rate = 1.0; c_kinds = [ Chaos.Crash ] }
  in
  let crashing = start_tcp_serve ~chaos ~dir "crash" in
  let healthy = start_tcp_serve ~dir "healthy" in
  let jobs =
    List.init 6 (fun i ->
        Jobfile.make
          ~id:(Printf.sprintf "calc-%d" i)
          ~source:(Printf.sprintf "x := %d;\nprint x;\n" i)
          ~op:(Jobfile.Translate (Jobfile.Language "desk_calc"))
          ~file:(Printf.sprintf "in-%d.calc" i)
          ())
  in
  let report =
    Coordinator.run ~workers:[ snd crashing; snd healthy ] jobs
  in
  shutdown_serve crashing;
  shutdown_serve healthy;
  let doc s =
    Lg_support.Json_out.to_string (Batch.to_json ~timings:false s)
  in
  let seq =
    Batch.run_sequential ~metrics:(Lg_support.Metrics.create ()) jobs
  in
  Alcotest.(check string)
    "results byte-identical to sequential" (doc seq)
    (doc report.Coordinator.summary);
  match report.Coordinator.workers with
  | [ bad; good ] ->
      Alcotest.(check int) "the crashing worker answers nothing" 0
        bad.Coordinator.w_completed;
      Alcotest.(check int) "the healthy worker answers everything" 6
        good.Coordinator.w_completed;
      Alcotest.(check int) "every job the crashing worker took moved"
        bad.Coordinator.w_assigned report.Coordinator.redispatched;
      Alcotest.(check int) "every redispatch landed on the healthy worker"
        (6 + report.Coordinator.redispatched)
        (bad.Coordinator.w_assigned + good.Coordinator.w_assigned);
      Alcotest.(check bool) "neither worker lost" false
        (bad.Coordinator.w_lost || good.Coordinator.w_lost)
  | _ -> Alcotest.fail "expected two worker reports"

(* ---------------- ledger persistence through a serve restart -------- *)

let test_tenants_survive_restart () =
  with_temp_dir @@ fun dir ->
  let ledger_path = Filename.concat dir "tenants.json" in
  let job_doc id =
    Lg_support.Json_out.Obj
      [
        ("op", Lg_support.Json_out.Str "job");
        ( "job",
          Jobfile.job_to_json
            (Jobfile.make ~id ~source:calc_source
               ~op:(Jobfile.Translate (Jobfile.Language "desk_calc"))
               ~file:(id ^ ".calc") ()) );
      ]
  in
  let tenant_jobs endpoint =
    let doc =
      Server.request_endpoint ~endpoint
        (Lg_support.Json_out.parse {|{"op":"tenants"}|})
    in
    match Lg_support.Json_out.member "tenants" doc with
    | Some (Lg_support.Json_out.Arr [ row ]) -> (
        match Lg_support.Json_out.member "jobs" row with
        | Some (Lg_support.Json_out.Num n) -> int_of_float n
        | _ -> Alcotest.fail "tenant row lacks jobs")
    | _ -> Alcotest.fail "expected exactly one tenant row"
  in
  let round expected =
    let server = start_tcp_serve ~tenants_file:ledger_path ~dir "led" in
    let _, endpoint = server in
    let ran = Server.request_endpoint ~endpoint (job_doc "t") in
    Alcotest.(check bool) "job ok" true (response_ok ran);
    let jobs = tenant_jobs endpoint in
    shutdown_serve server;
    Alcotest.(check int)
      (Printf.sprintf "accounting after round %d" expected)
      expected jobs
  in
  (* first boot: no snapshot; second boot merges the saved one *)
  round 1;
  round 2

let () =
  Alcotest.run "fabric"
    [
      ( "shard",
        [
          Alcotest.test_case "affinity co-locates, plan is deterministic"
            `Quick test_shard_affinity;
          Alcotest.test_case "hot group spills to balance" `Quick
            test_shard_spill;
        ] );
      ( "pull",
        [
          Alcotest.test_case "held > unheld > head; lanes; avoid"
            `Quick test_pull_order;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "interactive preempts bulk at dequeue" `Quick
            test_pool_lane_preemption;
        ] );
      ( "slo-window",
        [
          Alcotest.test_case "rolling pair rotates and ages out" `Quick
            test_windowed_histogram;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "snapshot round-trips, merge adds" `Quick
            test_ledger_roundtrip;
          Alcotest.test_case "a bad row refuses the whole file" `Quick
            test_ledger_refuses_bad_rows;
          Alcotest.test_case "tenant accounting survives a restart" `Quick
            test_tenants_survive_restart;
        ] );
      ( "postmortems",
        [
          Alcotest.test_case "retention keeps the newest N" `Quick
            test_postmortem_retention;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "miss, verified put, build-once" `Quick
            test_grammar_handshake;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "byte-identical to sequential over 2 workers"
            `Quick test_coordinator_byte_identity;
          Alcotest.test_case "worker loss re-dispatches, zero job loss"
            `Quick test_worker_loss_redispatch;
          Alcotest.test_case "crashed jobs land on healthy worker"
            `Quick test_crash_redispatch;
        ] );
    ]
