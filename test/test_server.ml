(* The batch-evaluation service: pool scheduling and backpressure, the
   multi-domain safety of the shared support structures it leans on
   (Metrics, Trace, Interner, Io_stats, Once), the session cache's
   build-once/LRU contract, the jobfile codec, and — the core batch
   guarantee — that a fault-injected job fails alone with a typed exit
   code while its siblings produce byte-identical results to a
   sequential run. *)

open Lg_server

let n_domains = 4
let per_domain = 10_000

(* Spawn [n] domains running [f], join them all, propagating the first
   exception. *)
let in_domains n f =
  let ds = List.init n (fun i -> Domain.spawn (fun () -> f i)) in
  List.iter Domain.join ds

(* ---------------- pool ---------------- *)

let test_pool_order () =
  let pool = Pool.create ~workers:2 ~queue_capacity:64 () in
  Fun.protect ~finally:(fun () -> Pool.drain pool) @@ fun () ->
  let handles =
    List.init 50 (fun i ->
        match Pool.submit pool (fun () -> i * i) with
        | Ok h -> h
        | Error _ -> Alcotest.fail "unexpected rejection")
  in
  List.iteri
    (fun i h ->
      match Pool.await h with
      | Ok v -> Alcotest.(check int) (Printf.sprintf "job %d" i) (i * i) v
      | Error e -> Alcotest.failf "job %d raised %s" i (Printexc.to_string e))
    handles

let test_pool_backpressure () =
  let metrics = Lg_support.Metrics.create () in
  let pool = Pool.create ~metrics ~workers:1 ~queue_capacity:1 () in
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
  (* wait until the worker has dequeued the blocker so the queue is
     empty and its one slot is really free *)
  while Pool.queue_depth pool > 0 do
    Domain.cpu_relax ()
  done;
  let filler =
    match Pool.submit pool (fun () -> 42) with
    | Ok h -> h
    | Error _ -> Alcotest.fail "filler rejected"
  in
  (match Pool.submit pool (fun () -> 0) with
  | Ok _ -> Alcotest.fail "expected saturation"
  | Error r ->
      Alcotest.(check int) "rejection reports depth" 1 r.Pool.rj_depth;
      Alcotest.(check int) "rejection reports capacity" 1 r.Pool.rj_capacity);
  Atomic.set gate true;
  (match Pool.await blocker with
  | Ok () -> ()
  | Error e -> Alcotest.failf "blocker raised %s" (Printexc.to_string e));
  (match Pool.await filler with
  | Ok v -> Alcotest.(check int) "filler ran after release" 42 v
  | Error e -> Alcotest.failf "filler raised %s" (Printexc.to_string e));
  Pool.drain pool;
  match Lg_support.Metrics.find metrics "server.rejections" with
  | Some (Lg_support.Metrics.Counter 1) -> ()
  | v ->
      Alcotest.failf "server.rejections: %s"
        (match v with None -> "absent" | Some _ -> "wrong kind or count")

let test_pool_exception_isolation () =
  let pool = Pool.create ~workers:2 ~queue_capacity:8 () in
  Fun.protect ~finally:(fun () -> Pool.drain pool) @@ fun () ->
  let bad =
    match Pool.submit pool (fun () -> failwith "boom") with
    | Ok h -> h
    | Error _ -> Alcotest.fail "rejected"
  and good =
    match Pool.submit pool (fun () -> "fine") with
    | Ok h -> h
    | Error _ -> Alcotest.fail "rejected"
  in
  (match Pool.await bad with
  | Error (Failure msg) -> Alcotest.(check string) "exception carried" "boom" msg
  | Error e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | Ok () -> Alcotest.fail "failing job reported success");
  match Pool.await good with
  | Ok s -> Alcotest.(check string) "sibling unaffected" "fine" s
  | Error e -> Alcotest.failf "sibling raised %s" (Printexc.to_string e)

let test_pool_drain () =
  let pool = Pool.create ~workers:2 ~queue_capacity:16 () in
  let handles =
    List.init 10 (fun i ->
        match Pool.submit pool (fun () -> i) with
        | Ok h -> h
        | Error _ -> Alcotest.fail "rejected")
  in
  Pool.drain pool;
  (* drain runs the backlog dry before joining *)
  List.iteri
    (fun i h ->
      match Pool.await h with
      | Ok v -> Alcotest.(check int) "backlog ran" i v
      | Error e -> Alcotest.failf "job raised %s" (Printexc.to_string e))
    handles;
  Pool.drain pool (* idempotent *);
  match Pool.submit pool (fun () -> 0) with
  | exception Invalid_argument _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "submit after drain must raise"

(* The worker floor on the minor heap is one constant, measured in
   docs/SERVER.md: pin it, so changing it is deliberate. An explicit
   OCAMLRUNPARAM s=... above the floor wins, so the exact check only
   holds when the environment leaves the size alone. *)
let test_pool_minor_heap_floor () =
  let floor = 1024 * 1024 in
  let sets_minor_heap var =
    match Sys.getenv_opt var with
    | None -> false
    | Some v ->
        List.exists
          (fun kv -> String.starts_with ~prefix:"s=" kv)
          (String.split_on_char ',' v)
  in
  let pool = Pool.create ~workers:1 ~queue_capacity:4 () in
  Fun.protect ~finally:(fun () -> Pool.drain pool) @@ fun () ->
  let words =
    match Pool.submit pool (fun () -> (Gc.get ()).Gc.minor_heap_size) with
    | Error _ -> Alcotest.fail "rejected"
    | Ok h -> (
        match Pool.await h with
        | Ok w -> w
        | Error e -> Alcotest.failf "job raised %s" (Printexc.to_string e))
  in
  if sets_minor_heap "OCAMLRUNPARAM" || sets_minor_heap "CAMLRUNPARAM" then
    Alcotest.(check bool) "at least the floor" true (words >= floor)
  else Alcotest.(check int) "worker minor heap, words" floor words

(* ---------------- multi-domain hammers ---------------- *)

let test_metrics_hammer () =
  let m = Lg_support.Metrics.create () in
  in_domains n_domains (fun d ->
      for i = 1 to per_domain do
        Lg_support.Metrics.incr m "hammer.count";
        Lg_support.Metrics.observe m "hammer.sizes" (float_of_int i);
        Lg_support.Metrics.set_max m "hammer.peak"
          (float_of_int ((d * per_domain) + i))
      done);
  let expect_total = n_domains * per_domain in
  (match Lg_support.Metrics.find m "hammer.count" with
  | Some (Lg_support.Metrics.Counter n) ->
      Alcotest.(check int) "no lost increments" expect_total n
  | _ -> Alcotest.fail "hammer.count missing");
  (match Lg_support.Metrics.find m "hammer.sizes" with
  | Some (Lg_support.Metrics.Histogram h) ->
      Alcotest.(check int) "no lost observations" expect_total
        h.Lg_support.Metrics.h_count
  | _ -> Alcotest.fail "hammer.sizes missing");
  match Lg_support.Metrics.find m "hammer.peak" with
  | Some (Lg_support.Metrics.Gauge g) ->
      Alcotest.(check (float 0.0)) "high-water mark survives races"
        (float_of_int expect_total) g
  | _ -> Alcotest.fail "hammer.peak missing"

let test_trace_absorb_hammer () =
  let parent = Lg_support.Trace.create () in
  let spans_per_domain = 100 in
  let lock = Mutex.create () in
  in_domains n_domains (fun _ ->
      (* each worker traces into a private tracer — the pool's model —
         and only the splice into the parent is serialized *)
      let child = Lg_support.Trace.create () in
      for i = 1 to spans_per_domain do
        Lg_support.Trace.span child ~cat:"hammer"
          (Printf.sprintf "s%d" i)
          (fun () -> Lg_support.Trace.counter child "hammer.events" 1)
      done;
      Mutex.lock lock;
      Lg_support.Trace.absorb parent child;
      Mutex.unlock lock);
  Alcotest.(check int) "every span landed"
    (n_domains * spans_per_domain)
    (Lg_support.Trace.span_count parent);
  Alcotest.(check int) "counters accumulated"
    (n_domains * spans_per_domain)
    (List.assoc "hammer.events" (Lg_support.Trace.counters parent))

let test_interner_hammer () =
  let it = Lg_support.Interner.create () in
  let n_names = 200 in
  (* all domains intern the same overlapping name set concurrently *)
  in_domains n_domains (fun _ ->
      for round = 1 to 50 do
        ignore round;
        for i = 0 to n_names - 1 do
          let s = Printf.sprintf "sym-%d" i in
          let n = Lg_support.Interner.intern it s in
          if Lg_support.Interner.text it n <> s then
            failwith ("interner corrupted " ^ s)
        done
      done);
  Alcotest.(check int) "no duplicate or lost symbols" n_names
    (Lg_support.Interner.count it);
  for i = 0 to n_names - 1 do
    let s = Printf.sprintf "sym-%d" i in
    match Lg_support.Interner.find_opt it s with
    | Some n -> Alcotest.(check string) "round-trip" s (Lg_support.Interner.text it n)
    | None -> Alcotest.failf "symbol %s vanished" s
  done

let test_io_stats_hammer () =
  let s = Lg_apt.Io_stats.create () in
  in_domains n_domains (fun _ ->
      for _ = 1 to per_domain do
        Lg_apt.Io_stats.bump s.Lg_apt.Io_stats.bytes_read 3;
        Lg_apt.Io_stats.bump s.Lg_apt.Io_stats.retries 1
      done);
  Alcotest.(check int) "bytes_read exact"
    (3 * n_domains * per_domain)
    (Lg_apt.Io_stats.get s.Lg_apt.Io_stats.bytes_read);
  Alcotest.(check int) "retries exact" (n_domains * per_domain)
    (Lg_apt.Io_stats.get s.Lg_apt.Io_stats.retries)

let test_once_hammer () =
  let built = Atomic.make 0 in
  let cell =
    Lg_support.Once.make (fun () ->
        Atomic.incr built;
        (* widen the race window: every concurrent forcer should be
           waiting on the lock while the first builds *)
        Unix.sleepf 0.02;
        Atomic.get built * 1000)
  in
  let seen = Array.make (2 * n_domains) 0 in
  in_domains (2 * n_domains) (fun i -> seen.(i) <- Lg_support.Once.force cell);
  Alcotest.(check int) "thunk ran exactly once" 1 (Atomic.get built);
  Array.iter (fun v -> Alcotest.(check int) "all forcers agree" 1000 v) seen

(* ---------------- session cache ---------------- *)

let shared_payload =
  lazy (Lg_languages.Desk_calc.translator ())

let test_session_builds_once () =
  let cache = Session.create_cache ~capacity:4 () in
  let builds = Atomic.make 0 in
  let payload = Lazy.force shared_payload in
  let build () =
    Atomic.incr builds;
    Unix.sleepf 0.02;
    payload
  in
  in_domains n_domains (fun _ ->
      let s =
        Session.find_or_build cache ~digest:"d-shared" ~label:"shared" ~build ()
      in
      if s.Session.s_digest <> "d-shared" then failwith "wrong session");
  Alcotest.(check int) "concurrent requests share one build" 1
    (Atomic.get builds);
  let hits, misses = Session.stats cache in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "the rest were hits" (n_domains - 1) hits

let test_session_lru_eviction () =
  let cache = Session.create_cache ~capacity:2 () in
  let builds = Atomic.make 0 in
  let payload = Lazy.force shared_payload in
  let get d =
    (* uniform pinned weights: cost-aware eviction degrades to exact LRU *)
    ignore
      (Session.find_or_build cache ~weight:1.0 ~digest:d ~label:d
         ~build:(fun () ->
           Atomic.incr builds;
           payload)
         ())
  in
  get "a";
  get "b";
  Alcotest.(check int) "cache is full" 2 (Session.length cache);
  get "a" (* refresh a: b becomes the LRU victim *);
  get "c" (* evicts b *);
  Alcotest.(check int) "capacity bound holds" 2 (Session.length cache);
  Alcotest.(check int) "three builds so far" 3 (Atomic.get builds);
  get "a" (* still resident: no rebuild *);
  Alcotest.(check int) "a survived" 3 (Atomic.get builds);
  get "b" (* evicted: rebuilds *);
  Alcotest.(check int) "b was evicted and rebuilt" 4 (Atomic.get builds)

let test_session_failed_build_releases_key () =
  let cache = Session.create_cache ~capacity:2 () in
  (match
     Session.find_or_build cache ~digest:"d-fail" ~label:"f"
       ~build:(fun () -> failwith "bad grammar")
       ()
   with
  | exception Failure msg ->
      Alcotest.(check string) "build error propagates" "bad grammar" msg
  | _ -> Alcotest.fail "expected the build failure");
  Alcotest.(check int) "failed entry not retained" 0 (Session.length cache);
  let s =
    Session.find_or_build cache ~digest:"d-fail" ~label:"f"
      ~build:(fun () -> Lazy.force shared_payload)
      ()
  in
  Alcotest.(check string) "key reusable after failure" "d-fail"
    s.Session.s_digest

let test_session_digest () =
  let d1 = Session.digest ~kind:"grammar" ~source:"S: 'a';" in
  let d2 = Session.digest ~kind:"grammar" ~source:"S: 'b';" in
  let d3 = Session.digest ~kind:"language" ~source:"S: 'a';" in
  if d1 = d2 then Alcotest.fail "distinct sources must get distinct digests";
  if d1 = d3 then Alcotest.fail "kind participates in the digest";
  Alcotest.(check string) "digest is stable" d1
    (Session.digest ~kind:"grammar" ~source:"S: 'a';")

(* ---------------- jobfile codec ---------------- *)

let test_jobfile_roundtrip () =
  let faults =
    {
      Lg_apt.Apt_store.f_seed = 7;
      f_rate = 0.25;
      f_kinds = [ Lg_apt.Apt_store.Transient_io; Lg_apt.Apt_store.Torn_write ];
    }
  in
  let jobs =
    [
      Jobfile.make ~id:"calc" ~op:Jobfile.Check ~file:"a.ag" ();
      Jobfile.make ~id:"full" ~store:"paged" ~page_size:512 ~faults
        ~depth_budget:1000 ~node_budget:50 ~op:Jobfile.Analyze ~file:"b.ag" ();
      Jobfile.make ~id:"tr" ~op:(Jobfile.Translate (Jobfile.Language "desk_calc")) ~file:"in.calc"
        ();
    ]
  in
  let doc = Jobfile.to_string ~pretty:true jobs in
  match Jobfile.parse doc with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok jobs' ->
      Alcotest.(check int) "same count" (List.length jobs) (List.length jobs');
      List.iter2
        (fun a b ->
          if a <> b then
            Alcotest.failf "job %s did not round-trip:\n%s" a.Jobfile.j_id doc)
        jobs jobs'

let expect_jobfile_error name fragment doc =
  match Jobfile.parse doc with
  | Ok _ -> Alcotest.failf "%s: accepted a malformed document" name
  | Error e ->
      if not (Fixtures.contains_substring ~needle:fragment e) then
        Alcotest.failf "%s: error %S missing %S" name e fragment

let test_jobfile_rejects () =
  expect_jobfile_error "bad version" "version"
    {|{ "linguist_jobs": 99, "jobs": [] }|};
  expect_jobfile_error "missing magic" "linguist_jobs" {|{ "jobs": [] }|};
  expect_jobfile_error "unknown op" "op"
    {|{ "linguist_jobs": 1, "jobs": [ { "op": "compile", "file": "x" } ] }|};
  expect_jobfile_error "missing file" "file"
    {|{ "linguist_jobs": 1, "jobs": [ { "op": "check" } ] }|};
  expect_jobfile_error "bad faults" "faults"
    {|{ "linguist_jobs": 1,
        "jobs": [ { "op": "check", "file": "x", "faults": "nope" } ] }|};
  expect_jobfile_error "translate needs a language" "language"
    {|{ "linguist_jobs": 1, "jobs": [ { "op": "translate", "file": "x" } ] }|}

(* The integer fields are integral, inside the int range and not below
   their floor, or the document is refused with the field's name: a
   page size of 0, -3 or 2^62 - 1 never reaches a store, and 2.5 is not
   truncated to 2. *)
let test_jobfile_integer_fields () =
  let job field value =
    Printf.sprintf
      {|{ "linguist_jobs": 1,
          "jobs": [ { "op": "analyze", "file": "g.ag", %S: %s } ] }|}
      field value
  in
  List.iter
    (fun (field, value, fragment) ->
      expect_jobfile_error
        (Printf.sprintf "%s %s" field value)
        (Printf.sprintf "%S must %s" field fragment)
        (job field value))
    [
      ("page_size", "0", "be positive");
      ("page_size", "-3", "be positive");
      ("page_size", "4611686018427387903", "be an integer");
      ("page_size", "2.5", "be an integer");
      ("page_size", "\"big\"", "be a number");
      ("depth_budget", "-1", "not be negative");
      ("depth_budget", "1e300", "be an integer");
      ("node_budget", "0.5", "be an integer");
      ("node_budget", "-7", "not be negative");
    ];
  match Jobfile.parse (job "page_size" "512") with
  | Ok [ j ] ->
      Alcotest.(check (option int)) "a positive page size is kept" (Some 512)
        j.Jobfile.j_page_size
  | Ok _ -> Alcotest.fail "wrong job count"
  | Error e -> Alcotest.failf "page_size 512 refused: %s" e

let test_jobfile_default_ids () =
  let doc =
    {|{ "linguist_jobs": 1, "jobs": [
         { "op": "check", "file": "a.ag" },
         { "op": "check", "file": "b.ag" } ] }|}
  in
  match Jobfile.parse doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok jobs ->
      Alcotest.(check (list string))
        "positional ids" [ "job-1"; "job-2" ]
        (List.map (fun j -> j.Jobfile.j_id) jobs)

(* ---------------- batch semantics ---------------- *)

let write_temp_grammar () =
  let path = Filename.temp_file "server_test" ".ag" in
  let oc = open_out_bin path in
  output_string oc Lg_languages.Desk_calc.ag_source;
  close_out oc;
  path

(* One destructively-faulted job among healthy siblings: the batch must
   record exactly one typed failure (exit 40-44) and leave the siblings'
   payloads byte-identical to a sequential, fault-free-sibling run. *)
let test_batch_fault_isolation () =
  let grammar = write_temp_grammar () in
  Fun.protect ~finally:(fun () -> Sys.remove grammar) @@ fun () ->
  let healthy id =
    Jobfile.make ~id ~store:"paged" ~op:Jobfile.Analyze ~file:grammar ()
  in
  let poisoned =
    Jobfile.make ~id:"poisoned" ~store:"paged"
      ~faults:
        {
          Lg_apt.Apt_store.f_seed = 11;
          f_rate = 0.3;
          f_kinds = [ Lg_apt.Apt_store.Torn_write; Lg_apt.Apt_store.Bit_flip ];
        }
      ~op:Jobfile.Analyze ~file:grammar ()
  in
  let jobs = [ healthy "left"; poisoned; healthy "right" ] in
  let pooled = Batch.run ~workers:2 jobs in
  let failed =
    List.filter (fun o -> not o.Batch.o_ok) pooled.Batch.outcomes
  in
  (match failed with
  | [ o ] ->
      Alcotest.(check string) "the poisoned job failed" "poisoned"
        o.Batch.o_id;
      if o.Batch.o_exit < 40 || o.Batch.o_exit > 44 then
        Alcotest.failf "expected a typed 40-44 exit, got %d" o.Batch.o_exit;
      if o.Batch.o_error = None then
        Alcotest.fail "typed failure must carry a message"
  | os -> Alcotest.failf "expected exactly one failure, got %d" (List.length os));
  Alcotest.(check int) "summary counts the failure" 1 pooled.Batch.n_failed;
  Alcotest.(check int) "siblings succeeded" 2 pooled.Batch.n_ok;
  (* byte-determinism: the pooled document equals the sequential one *)
  let sequential = Batch.run_sequential jobs in
  Alcotest.(check string) "pooled run is byte-identical to sequential"
    (Lg_support.Json_out.to_string (Batch.to_json sequential))
    (Lg_support.Json_out.to_string (Batch.to_json pooled))

(* The corpus differential: a generated multi-tenant workload — many
   grammars, interleaved tenants, mixed translate/update ops, mixed
   stores, fault specs — run through the pool must produce a document
   byte-identical to the sequential run. This extends the differential
   beyond hand-written grammars to the generated corpus. *)
let test_batch_corpus_differential () =
  let dir = Filename.temp_file "server_corpus" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec =
    {
      Lg_corpus.Emit.s_seed = 3;
      s_grammars = 5;
      s_profile = Lg_corpus.Corpus_gen.Small;
      s_inputs = 4;
      s_input_size = 30;
      s_fault_every = 5;
    }
  in
  let corpus = Lg_corpus.Emit.write ~dir spec in
  let old = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir old) @@ fun () ->
  let sequential = Batch.run_sequential corpus.Lg_corpus.Emit.c_jobs in
  Alcotest.(check int) "corpus workload is all-ok" 0
    sequential.Batch.n_failed;
  let doc s = Lg_support.Json_out.to_string (Batch.to_json s) in
  List.iter
    (fun workers ->
      let pooled = Batch.run ~workers corpus.Lg_corpus.Emit.c_jobs in
      Alcotest.(check string)
        (Printf.sprintf "%d workers byte-identical to sequential" workers)
        (doc sequential) (doc pooled))
    [ 2; 4 ]

let test_batch_missing_file () =
  let jobs = [ Jobfile.make ~op:Jobfile.Check ~file:"/nonexistent.ag" () ] in
  let s = Batch.run_sequential jobs in
  match s.Batch.outcomes with
  | [ o ] ->
      if o.Batch.o_ok then Alcotest.fail "missing input must fail its job";
      Alcotest.(check int) "plain failure, not a typed APT class" 1
        o.Batch.o_exit
  | _ -> Alcotest.fail "one job, one outcome"

(* A store name that is not one of the two stores (one that was pruned,
   or [faulty], whose fault injection [paged] applies itself) fails its
   own job with the plain exit 1, naming the stores it could have used. A
   [check] job runs no evaluator, so the same name does not fail it. *)
let test_batch_removed_store () =
  let grammar = write_temp_grammar () in
  Fun.protect ~finally:(fun () -> Sys.remove grammar) @@ fun () ->
  let run op store =
    let doc =
      Printf.sprintf
        {|{ "linguist_jobs": 1,
            "jobs": [ { "op": %S, "file": %S, "store": %S } ] }|}
        op grammar store
    in
    match Jobfile.parse doc with
    | Error e -> Alcotest.failf "parse failed: %s" e
    | Ok jobs -> (Batch.run_sequential jobs).Batch.outcomes
  in
  List.iter
    (fun store ->
      (match run "check" store with
      | [ o ] ->
          Alcotest.(check int) (store ^ ": check ignores it") 0 o.Batch.o_exit
      | _ -> Alcotest.fail "one job, one outcome");
      match run "analyze" store with
      | [ o ] ->
          Alcotest.(check int) (store ^ ": plain failure") 1 o.Batch.o_exit;
          Alcotest.(check (option string))
            (store ^ ": error")
            (Some
               (Printf.sprintf "unknown APT store %S (registered: mem, paged)"
                  store))
            o.Batch.o_error
      | _ -> Alcotest.fail "one job, one outcome")
    [ "prefetch"; "faulty"; "zip" ]

(* ---------------- supervision: crashes and deadlines ---------------- *)

let counter metrics name =
  match Lg_support.Metrics.find metrics name with
  | Some (Lg_support.Metrics.Counter n) -> n
  | _ -> 0

let test_pool_crash_respawn () =
  let metrics = Lg_support.Metrics.create () in
  let pool = Pool.create ~metrics ~workers:2 ~queue_capacity:16 () in
  Fun.protect ~finally:(fun () -> Pool.drain pool) @@ fun () ->
  let bad =
    match
      Pool.submit ~label:"victim" pool (fun () -> raise (Pool.Crash "injected"))
    with
    | Ok h -> h
    | Error _ -> Alcotest.fail "rejected"
  in
  (match Pool.await bad with
  | Error (Server_error.Error (Server_error.Worker_crashed { job; detail } as e))
    ->
      Alcotest.(check string) "label carried" "victim" job;
      Alcotest.(check string) "detail carried" "injected" detail;
      Alcotest.(check int) "typed exit code" 51 (Server_error.exit_code e)
  | Error e -> Alcotest.failf "wrong error: %s" (Printexc.to_string e)
  | Ok () -> Alcotest.fail "crashed job reported success");
  (* the crash and the restart are both counted before the failure is
     published *)
  Alcotest.(check int) "restart visible to the awaiter" 1
    (counter metrics "server.worker_restarts");
  (* the dead worker's replacement restores full capacity *)
  let after =
    List.init 8 (fun i ->
        match Pool.submit pool (fun () -> i) with
        | Ok h -> h
        | Error _ -> Alcotest.fail "rejected after respawn")
  in
  List.iteri
    (fun i h ->
      match Pool.await h with
      | Ok v -> Alcotest.(check int) "ran after respawn" i v
      | Error e -> Alcotest.failf "raised %s" (Printexc.to_string e))
    after;
  Alcotest.(check int) "one crash counted" 1
    (counter metrics "server.worker_crashes");
  if counter metrics "server.worker_restarts" < 1 then
    Alcotest.fail "no restart counted"

let test_pool_deadline () =
  let metrics = Lg_support.Metrics.create () in
  let pool =
    Pool.create ~metrics ~watchdog_interval:0.002 ~workers:1 ~queue_capacity:8
      ()
  in
  Fun.protect ~finally:(fun () -> Pool.drain pool) @@ fun () ->
  let slow =
    match
      Pool.submit ~label:"wedged" ~deadline:0.05 pool (fun () ->
          Unix.sleepf 0.5;
          "late")
    with
    | Ok h -> h
    | Error _ -> Alcotest.fail "rejected"
  in
  (match Pool.await slow with
  | Error
      (Server_error.Error
         (Server_error.Deadline_exceeded { job; deadline; elapsed } as e)) ->
      Alcotest.(check string) "label carried" "wedged" job;
      Alcotest.(check int) "typed exit code" 50 (Server_error.exit_code e);
      if deadline <= 0.0 then Alcotest.fail "deadline not recorded";
      if elapsed < deadline then Alcotest.fail "failed before the deadline";
      if elapsed > 0.4 then
        Alcotest.failf "watchdog waited for the thunk (%.3f s)" elapsed
  | Error e -> Alcotest.failf "wrong error: %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "over-budget job reported success");
  (* the replacement worker serves while the abandoned one still sleeps *)
  let t0 = Unix.gettimeofday () in
  (match Pool.submit pool (fun () -> "prompt") with
  | Ok h -> (
      match Pool.await h with
      | Ok s -> Alcotest.(check string) "replacement serves" "prompt" s
      | Error e -> Alcotest.failf "raised %s" (Printexc.to_string e))
  | Error _ -> Alcotest.fail "rejected after abandonment");
  if Unix.gettimeofday () -. t0 > 0.4 then
    Alcotest.fail "replacement was not prompt";
  if counter metrics "server.deadline_exceeded" < 1 then
    Alcotest.fail "deadline metric missing"

let test_pool_deadline_in_queue () =
  let pool = Pool.create ~workers:1 ~queue_capacity:8 () in
  Fun.protect ~finally:(fun () -> Pool.drain pool) @@ fun () ->
  let ran = Atomic.make false in
  let blocker =
    match Pool.submit pool (fun () -> Unix.sleepf 0.2) with
    | Ok h -> h
    | Error _ -> Alcotest.fail "blocker rejected"
  in
  while Pool.queue_depth pool > 0 do
    Domain.cpu_relax ()
  done;
  let doomed =
    match
      Pool.submit ~label:"queued" ~deadline:0.05 pool (fun () ->
          Atomic.set ran true)
    with
    | Ok h -> h
    | Error _ -> Alcotest.fail "doomed rejected"
  in
  (match Pool.await doomed with
  | Error (Server_error.Error (Server_error.Deadline_exceeded _)) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Printexc.to_string e)
  | Ok () -> Alcotest.fail "expired-in-queue job reported success");
  (match Pool.await blocker with
  | Ok () -> ()
  | Error e -> Alcotest.failf "blocker raised %s" (Printexc.to_string e));
  Alcotest.(check bool) "expired job never ran" false (Atomic.get ran)

(* ---------------- session quarantine ---------------- *)

let quarantined c ~digest =
  match Session.refuse_if_quarantined c ~digest with
  | () -> false
  | exception Server_error.Error (Server_error.Session_quarantined _) -> true

let test_session_quarantine () =
  let c = Session.create_cache ~quarantine_after:2 () in
  let digest = Session.digest ~kind:"language" ~source:"desk_calc" in
  Alcotest.(check bool) "clean" false (quarantined c ~digest);
  Alcotest.(check int) "threshold" 2 (Session.quarantine_threshold c);
  Alcotest.(check int) "first strike" 1
    (Session.strike c ~digest ~label:"language:desk_calc");
  Alcotest.(check bool) "below threshold" false
    (quarantined c ~digest);
  (* the session may be resident when it crosses the threshold *)
  ignore (Session.language_session c "desk_calc");
  Alcotest.(check int) "resident" 1 (Session.length c);
  Alcotest.(check int) "second strike" 2
    (Session.strike c ~digest ~label:"language:desk_calc");
  Alcotest.(check bool) "quarantined" true (quarantined c ~digest);
  Alcotest.(check int) "entry dropped on crossing" 0 (Session.length c);
  (match Session.language_session c "desk_calc" with
  | exception
      Server_error.Error
        (Server_error.Session_quarantined { digest = d; strikes; _ } as e) ->
      Alcotest.(check string) "digest named" digest d;
      Alcotest.(check int) "strikes named" 2 strikes;
      Alcotest.(check int) "typed exit code" 52 (Server_error.exit_code e)
  | _ -> Alcotest.fail "quarantined session must refuse to build");
  (match Session.quarantined c with
  | [ (d, label, 2) ] ->
      Alcotest.(check string) "listed digest" digest d;
      Alcotest.(check string) "listed label" "language:desk_calc" label
  | l -> Alcotest.failf "expected one quarantined entry, got %d" (List.length l));
  Alcotest.(check bool) "evict lifts quarantine" true
    (Session.evict c ~digest);
  Alcotest.(check bool) "clean again" false (quarantined c ~digest);
  ignore (Session.language_session c "desk_calc")

let test_session_quarantine_clear () =
  let c = Session.create_cache ~quarantine_after:1 () in
  let digest = Session.digest ~kind:"x" ~source:"y" in
  ignore (Session.strike c ~digest ~label:"x:y");
  Alcotest.(check bool) "quarantined at threshold 1" true
    (quarantined c ~digest);
  ignore (Session.clear c);
  Alcotest.(check bool) "clear lifts quarantine" false
    (quarantined c ~digest);
  Alcotest.(check int) "strikes reset" 1
    (Session.strike c ~digest ~label:"x:y")

(* ---------------- chaos injection ---------------- *)

let test_chaos_spec () =
  (match Chaos.parse_spec "9:0.05:crash,drop" with
  | Ok spec ->
      Alcotest.(check string) "round-trip" "9:0.05:crash,drop"
        (Chaos.render_spec spec);
      Alcotest.(check int) "seed" 9 spec.Chaos.c_seed
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (match Chaos.parse_spec "3:0.5:all" with
  | Ok spec ->
      Alcotest.(check int) "all = four kinds" 4 (List.length spec.Chaos.c_kinds)
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  List.iter
    (fun bad ->
      match Chaos.parse_spec bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "x"; "1:2"; "1:1.5:crash"; "1:0.1:explode"; "seed:0.1:crash"; "1:0.1:" ]

(* one SEED:RATE:KINDS grammar under both kind tables, errors verbatim *)
let test_spec_parsers_agree () =
  let render = function Ok s -> s | Error msg -> "error: " ^ msg in
  let chaos s = render (Result.map Chaos.render_spec (Chaos.parse_spec s)) in
  let fault s =
    render
      (Result.map Lg_apt.Apt_store.spec_to_string
         (Lg_apt.Apt_store.parse_spec s))
  in
  let unknown noun kinds bad =
    Printf.sprintf "error: unknown %s kind %S (expected %s|all)" noun bad kinds
  in
  let chaos_kind = unknown "chaos" "delay|crash|wedge|drop"
  and fault_kind = unknown "fault" "transient|short|flip|torn" in
  let bad_rate =
    "error: expected SEED:RATE:KINDS with integer seed and rate in [0,1]"
  in
  List.iter
    (fun (spec, want_chaos, want_fault) ->
      Alcotest.(check string) ("chaos " ^ spec) want_chaos (chaos spec);
      Alcotest.(check string) ("fault " ^ spec) want_fault (fault spec))
    [
      ("9:0.05:crash,drop", "9:0.05:crash,drop", fault_kind "crash");
      ("42:0.01:transient,flip", chaos_kind "transient", "42:0.01:transient,flip");
      ("1:0.1:CRASH,,Drop", "1:0.1:crash,drop", fault_kind "crash");
      ("3:0.5:all", "3:0.5:delay,crash,wedge,drop", "3:0.5:transient,short,flip,torn");
      ( "5:0.1234567:all",
        "5:0.1234567:delay,crash,wedge,drop",
        "5:0.1234567:transient,short,flip,torn" );
      ("1:0.1:", "error: no chaos kinds given", "error: no fault kinds given");
      ("1:0.1:,", "error: no chaos kinds given", "error: no fault kinds given");
      ("1:1.5:all", bad_rate, bad_rate);
      ("1:-0.1:all", bad_rate, bad_rate);
      ("seed:0.1:all", bad_rate, bad_rate);
      ("1:0.1:explode", chaos_kind "explode", fault_kind "explode");
      ( "1:2",
        "error: expected SEED:RATE:KINDS, e.g. 9:0.05:crash,drop",
        "error: expected SEED:RATE:KINDS, e.g. 42:0.01:transient,flip" );
    ]

let test_chaos_determinism () =
  let spec = { Chaos.c_seed = 7; c_rate = 0.3; c_kinds = [ Chaos.Crash ] } in
  let decisions c =
    List.init 100 (fun i ->
        Chaos.on_job c ~id:(Printf.sprintf "job-%d" i) ~file:"f.ag")
  in
  let a = decisions (Chaos.create spec)
  and b = decisions (Chaos.create spec) in
  Alcotest.(check bool) "same spec, same rolls" true (a = b);
  let hit = List.length (List.filter Option.is_some a) in
  if hit = 0 || hit = 100 then
    Alcotest.failf "rate 0.3 drew %d/100 injections" hit;
  (* poison overrides the roll with a crash, keyed by id or file *)
  let p = Chaos.create ~poison:"bad" { spec with Chaos.c_rate = 0.0 } in
  Alcotest.(check bool) "poisoned id crashes" true
    (Chaos.on_job p ~id:"bad-1" ~file:"f.ag" = Some Chaos.Crash_job);
  Alcotest.(check bool) "poisoned file crashes" true
    (Chaos.on_job p ~id:"j" ~file:"dir/bad.ag" = Some Chaos.Crash_job);
  Alcotest.(check bool) "others untouched at rate 0" true
    (Chaos.on_job p ~id:"j" ~file:"f.ag" = None)

(* Chaos through the batch layer: injected crashes fail typed, spare
   their siblings, and leave every surviving payload byte-identical to
   the fault-free sequential run — the rolls are keyed by the job, not
   the schedule. *)
let test_batch_chaos_differential () =
  let grammar = write_temp_grammar () in
  Fun.protect ~finally:(fun () -> Sys.remove grammar) @@ fun () ->
  let jobs =
    List.init 24 (fun i ->
        Jobfile.make
          ~id:(Printf.sprintf "job-%02d" i)
          ~op:Jobfile.Analyze ~file:grammar ())
  in
  let baseline = Batch.run_sequential jobs in
  Alcotest.(check int) "baseline all ok" 0 baseline.Batch.n_failed;
  let payloads s =
    List.map
      (fun o -> (o.Batch.o_id, Lg_support.Json_out.to_string o.Batch.o_payload))
      (List.filter (fun o -> o.Batch.o_ok) s.Batch.outcomes)
  in
  let base = payloads baseline in
  let spec = { Chaos.c_seed = 11; c_rate = 0.25; c_kinds = [ Chaos.Crash ] } in
  let survivors_of workers =
    (* all 24 jobs share one tenant; a generous threshold keeps the
       quarantine (tested elsewhere) out of this byte-identity check *)
    let sessions = Session.create_cache ~quarantine_after:1_000 () in
    let chaotic = Batch.run ~workers ~sessions ~chaos:(Chaos.create spec) jobs in
    List.iter
      (fun o ->
        if not o.Batch.o_ok then
          Alcotest.(check int)
            (o.Batch.o_id ^ " failed typed")
            51 o.Batch.o_exit)
      chaotic.Batch.outcomes;
    if chaotic.Batch.n_failed = 0 then
      Alcotest.fail "rate 0.25 injected nothing";
    payloads chaotic
  in
  let s2 = survivors_of 2 in
  let s4 = survivors_of 4 in
  Alcotest.(check bool) "same survivors at 2 and 4 workers" true (s2 = s4);
  List.iter
    (fun (id, payload) ->
      match List.assoc_opt id base with
      | Some b ->
          Alcotest.(check string) (id ^ " survivor byte-identical") b payload
      | None -> Alcotest.failf "%s not in the baseline" id)
    s2

(* A poisoned tenant accrues strikes and ends quarantined: later jobs
   are refused with the typed diagnostic before burning a worker. *)
let test_batch_poison_quarantine () =
  let grammar = write_temp_grammar () in
  Fun.protect ~finally:(fun () -> Sys.remove grammar) @@ fun () ->
  let sessions = Session.create_cache ~quarantine_after:2 () in
  let metrics = Lg_support.Metrics.create () in
  let jobs =
    List.init 4 (fun i ->
        Jobfile.make
          ~id:(Printf.sprintf "poison-%d" i)
          ~op:Jobfile.Analyze ~file:grammar ())
  in
  let chaos =
    Chaos.create ~poison:"poison"
      { Chaos.c_seed = 1; c_rate = 0.0; c_kinds = [ Chaos.Crash ] }
  in
  (* sequential, so strikes land between jobs *)
  let s = Batch.run ~workers:0 ~sessions ~metrics ~chaos jobs in
  Alcotest.(check (list int))
    "two crashes, then typed refusals" [ 51; 51; 52; 52 ]
    (List.map (fun o -> o.Batch.o_exit) s.Batch.outcomes);
  Alcotest.(check int) "quarantine crossing counted" 1
    (counter metrics "server.quarantined");
  let digest = Session.digest ~kind:"language" ~source:"linguist" in
  Alcotest.(check bool) "tenant session quarantined" true
    (quarantined sessions ~digest)

(* ---------------- jobfile deadline field ---------------- *)

let test_jobfile_deadline () =
  let doc =
    {|{ "linguist_jobs": 1,
        "jobs": [ { "op": "check", "file": "g.ag", "deadline": 0.25 },
                  { "op": "check", "file": "g.ag" } ] }|}
  in
  (match Jobfile.parse doc with
  | Ok [ a; b ] ->
      Alcotest.(check (option (float 1e-9))) "deadline read" (Some 0.25)
        a.Jobfile.j_deadline;
      Alcotest.(check (option (float 1e-9))) "absent stays absent" None
        b.Jobfile.j_deadline;
      let text = Jobfile.to_string [ a; b ] in
      (match Jobfile.parse text with
      | Ok [ a'; _ ] ->
          Alcotest.(check (option (float 1e-9))) "survives round-trip"
            (Some 0.25) a'.Jobfile.j_deadline
      | _ -> Alcotest.fail "re-parse failed")
  | Ok _ -> Alcotest.fail "wrong job count"
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  expect_jobfile_error "deadline must be positive" "must be positive"
    {|{ "linguist_jobs": 1,
        "jobs": [ { "op": "check", "file": "g.ag", "deadline": -1 } ] }|};
  expect_jobfile_error "deadline must be a number" "must be a number"
    {|{ "linguist_jobs": 1,
        "jobs": [ { "op": "check", "file": "g.ag", "deadline": "fast" } ] }|}

(* ---------------- the socket front-end under fault injection ------- *)

let rec rm_rf_dir path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf_dir (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "server_chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf_dir dir) (fun () -> f dir)

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if not (Sys.file_exists path) then Alcotest.fail "server never bound"

let job_request j =
  match Jobfile.to_json [ j ] with
  | doc -> (
      match Lg_support.Json_out.member "jobs" doc with
      | Some (Lg_support.Json_out.Arr [ jdoc ]) ->
          Lg_support.Json_out.Obj
            [ ("op", Lg_support.Json_out.Str "job"); ("job", jdoc) ]
      | _ -> Alcotest.fail "jobfile codec broke")

let response_field doc name =
  match Lg_support.Json_out.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" name

let response_exit doc =
  Lg_support.Json_out.to_int (response_field doc "exit")

let response_ok doc =
  match Lg_support.Json_out.member "ok" doc with
  | Some (Lg_support.Json_out.Bool b) -> b
  | _ -> false

(* Shutdown under load: accepted work survives a drain — in-flight and
   queued jobs answer, new intake is refused, health reports draining,
   and the socket file is gone after shutdown. *)
let test_serve_shutdown_under_load () =
  with_temp_dir @@ fun dir ->
  let grammar = write_temp_grammar () in
  Fun.protect ~finally:(fun () -> Sys.remove grammar) @@ fun () ->
  let socket = Filename.concat dir "srv.sock" in
  let chaos =
    (* every job sleeps 0.15 s, so drain really races running work *)
    Chaos.create ~delay:0.15
      { Chaos.c_seed = 1; c_rate = 1.0; c_kinds = [ Chaos.Delay ] }
  in
  let server =
    Thread.create
      (fun () ->
        Server.serve ~workers:1 ~queue_capacity:8 ~chaos ~socket ())
      ()
  in
  wait_for_socket socket;
  let job i =
    Jobfile.make ~id:(Printf.sprintf "load-%d" i) ~op:Jobfile.Analyze
      ~file:grammar ()
  in
  let results = Array.make 3 None in
  let clients =
    List.init 3 (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              Some (Server.request ~attempts:1 ~socket (job_request (job i))))
          ())
  in
  Thread.delay 0.05;
  let drained = Server.request ~socket (Lg_support.Json_out.parse {|{"op":"drain"}|}) in
  Alcotest.(check bool) "drain acknowledged" true (response_ok drained);
  let refused =
    Server.request ~attempts:1 ~socket (job_request (job 99))
  in
  Alcotest.(check bool) "new intake refused" false (response_ok refused);
  (match response_field refused "error" with
  | Lg_support.Json_out.Str "draining" -> ()
  | _ -> Alcotest.fail "refusal must say draining");
  let health = Server.request ~socket (Lg_support.Json_out.parse {|{"op":"health"}|}) in
  Alcotest.(check bool) "health reports draining" false (response_ok health);
  (* accepted work still answers *)
  List.iter Thread.join clients;
  Array.iteri
    (fun i r ->
      match r with
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "accepted job %d answered" i)
            true (response_ok r)
      | None -> Alcotest.failf "accepted job %d got no response" i)
    results;
  let bye = Server.request ~socket (Lg_support.Json_out.parse {|{"op":"shutdown"}|}) in
  Alcotest.(check bool) "shutdown acknowledged" true (response_ok bye);
  Thread.join server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* The retrying client rides out dropped connections. *)
let test_serve_retry_client () =
  with_temp_dir @@ fun dir ->
  let socket = Filename.concat dir "srv.sock" in
  let chaos =
    Chaos.create { Chaos.c_seed = 2; c_rate = 0.5; c_kinds = [ Chaos.Drop ] }
  in
  let server =
    Thread.create
      (fun () -> Server.serve ~workers:1 ~queue_capacity:8 ~chaos ~socket ())
      ()
  in
  wait_for_socket socket;
  let ping = Lg_support.Json_out.parse {|{"op":"ping"}|} in
  (* without retries, half the responses vanish *)
  let failures = ref 0 in
  for _ = 1 to 10 do
    match Server.request ~attempts:1 ~socket ping with
    | _ -> ()
    | exception Failure _ -> incr failures
  done;
  if !failures = 0 then Alcotest.fail "drop rate 0.5 dropped nothing";
  (* with retries, every request lands *)
  for i = 1 to 10 do
    let r = Server.request ~attempts:8 ~backoff:0.01 ~jitter_seed:i ~socket ping in
    Alcotest.(check bool) (Printf.sprintf "retried ping %d" i) true
      (response_ok r)
  done;
  (* shutdown's own response may be dropped; a retry then races the
     vanishing socket — either way the server stops *)
  (try
     ignore
       (Server.request ~attempts:8 ~backoff:0.01 ~socket
          (Lg_support.Json_out.parse {|{"op":"shutdown"}|}))
   with Unix.Unix_error _ | Failure _ -> ());
  Thread.join server

(* The acceptance scenario: a 200-job corpus workload served under
   crash + drop chaos with one always-crashing tenant. The server must
   survive to a clean shutdown with every job answered, every failure
   typed (exit 50-52), the poison tenant quarantined, and every
   surviving payload byte-identical to a fault-free sequential run. *)
let test_serve_chaos_endurance () =
  with_temp_dir @@ fun dir ->
  let spec =
    {
      Lg_corpus.Emit.s_seed = 5;
      s_grammars = 10;
      s_profile = Lg_corpus.Corpus_gen.Small;
      s_inputs = 20;
      s_input_size = 25;
      s_fault_every = 0;
    }
  in
  let corpus = Lg_corpus.Emit.write ~dir spec in
  (* the poison tenant: same grammar text as g000 plus a byte, so it
     compiles but caches under its own digest *)
  let poison_path = Filename.concat dir "poison.ag" in
  (let src_g0 =
     let ic = open_in_bin (Filename.concat dir (Lg_corpus.Emit.grammar_rel 0)) in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     s
   in
   let oc = open_out_bin poison_path in
   output_string oc (src_g0 ^ "\n");
   close_out oc);
  let poison_jobs =
    List.init 4 (fun i ->
        Jobfile.make
          ~id:(Printf.sprintf "poison-%d" (i + 1))
          ~op:(Jobfile.Translate (Jobfile.Grammar "poison.ag"))
          ~file:(Lg_corpus.Emit.input_rel 0 0)
          ())
  in
  let corpus_jobs =
    List.filteri (fun i _ -> i < 196) corpus.Lg_corpus.Emit.c_jobs
  in
  if List.length corpus_jobs < 196 then
    Alcotest.failf "corpus too small: %d jobs" (List.length corpus_jobs);
  let old = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir old) @@ fun () ->
  (* fault-free reference for the byte-identity contract *)
  let baseline = Batch.run_sequential (corpus_jobs @ poison_jobs) in
  Alcotest.(check int) "fault-free baseline is all-ok" 0
    baseline.Batch.n_failed;
  let base_payloads =
    List.map
      (fun o -> (o.Batch.o_id, Lg_support.Json_out.to_string o.Batch.o_payload))
      baseline.Batch.outcomes
  in
  let socket = Filename.concat dir "srv.sock" in
  let chaos =
    Chaos.create ~poison:"poison"
      { Chaos.c_seed = 23; c_rate = 0.08; c_kinds = [ Chaos.Crash; Chaos.Drop ] }
  in
  let server =
    Thread.create
      (fun () ->
        Server.serve ~workers:4 ~queue_capacity:64 ~quarantine_after:3 ~chaos
          ~deadline:30.0 ~socket ())
      ()
  in
  wait_for_socket socket;
  (* 6 client threads drain the shared corpus backlog through the
     retrying client; every job must come back with a response *)
  let backlog = ref corpus_jobs in
  let lock = Mutex.create () in
  let responses = ref [] in
  let next () =
    Mutex.lock lock;
    let j =
      match !backlog with
      | [] -> None
      | j :: rest ->
          backlog := rest;
          Some j
    in
    Mutex.unlock lock;
    j
  in
  let record id doc =
    Mutex.lock lock;
    responses := (id, doc) :: !responses;
    Mutex.unlock lock
  in
  let clients =
    List.init 6 (fun c ->
        Thread.create
          (fun () ->
            let rec go () =
              match next () with
              | None -> ()
              | Some j ->
                  let r =
                    Server.request ~attempts:8 ~backoff:0.01 ~jitter_seed:c
                      ~socket (job_request j)
                  in
                  record j.Jobfile.j_id r;
                  go ()
            in
            go ())
          ())
  in
  List.iter Thread.join clients;
  (* the poison tenant, sequentially: strikes accrue job by job, so the
     fourth must be refused before it can burn a worker *)
  let poison_exits =
    List.map
      (fun j ->
        let r =
          Server.request ~attempts:8 ~backoff:0.01 ~socket (job_request j)
        in
        record j.Jobfile.j_id r;
        response_exit r)
      poison_jobs
  in
  List.iter
    (fun e ->
      if e <> 51 && e <> 52 then
        Alcotest.failf "poison job exited %d (want 51/52)" e)
    poison_exits;
  Alcotest.(check int) "poison tenant ends refused" 52
    (List.nth poison_exits 3);
  (* every one of the 200 jobs answered *)
  Alcotest.(check int) "zero job loss" 200 (List.length !responses);
  (* typed diagnostics on every failure; byte-identity on every survivor *)
  List.iter
    (fun (id, r) ->
      if response_ok r then begin
        Alcotest.(check int) (id ^ " clean exit") 0 (response_exit r);
        match
          ( List.assoc_opt id base_payloads,
            Lg_support.Json_out.member "payload" r )
        with
        | Some base, Some payload ->
            Alcotest.(check string)
              (id ^ " survivor byte-identical")
              base
              (Lg_support.Json_out.to_string payload)
        | _ -> Alcotest.failf "%s: missing payload" id
      end
      else
        let e = response_exit r in
        if e < 50 || e > 52 then
          Alcotest.failf "%s failed untyped (exit %d)" id e)
    !responses;
  (* the quarantine is visible to operators *)
  let health =
    Server.request ~attempts:8 ~backoff:0.01 ~socket
      (Lg_support.Json_out.parse {|{"op":"health"}|})
  in
  (match Lg_support.Json_out.member "quarantined" health with
  | Some (Lg_support.Json_out.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "health must list the quarantined tenant");
  (* graceful stop: drain, then shutdown; the socket file must go *)
  ignore
    (Server.request ~attempts:8 ~backoff:0.01 ~socket
       (Lg_support.Json_out.parse {|{"op":"drain"}|}));
  (try
     ignore
       (Server.request ~attempts:8 ~backoff:0.01 ~socket
          (Lg_support.Json_out.parse {|{"op":"shutdown"}|}))
   with Unix.Unix_error _ | Failure _ -> ());
  Thread.join server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* ---------------- observability ---------------- *)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let read_whole path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A sequential run publishes the same server.* series a pooled run
   would, so the two are comparable on the metrics axis. *)
let test_run_sequential_metrics () =
  let grammar = write_temp_grammar () in
  Fun.protect ~finally:(fun () -> Sys.remove grammar) @@ fun () ->
  let metrics = Lg_support.Metrics.create () in
  let jobs =
    List.init 3 (fun i ->
        Jobfile.make ~id:(Printf.sprintf "s-%d" i) ~op:Jobfile.Analyze
          ~file:grammar ())
  in
  let s = Batch.run_sequential ~metrics jobs in
  Alcotest.(check int) "all ok" 0 s.Batch.n_failed;
  (match Lg_support.Metrics.find metrics "server.jobs" with
  | Some (Lg_support.Metrics.Counter 3) -> ()
  | _ -> Alcotest.fail "server.jobs should count the sequential jobs");
  List.iter
    (fun name ->
      match Lg_support.Metrics.find metrics name with
      | Some (Lg_support.Metrics.Histogram h) ->
          Alcotest.(check int) (name ^ " count") 3 h.Lg_support.Metrics.h_count
      | _ -> Alcotest.failf "%s should be a histogram" name)
    [
      "server.queue_wait_seconds";
      "server.service_seconds";
      "server.job_seconds";
    ];
  match Lg_support.Metrics.find metrics "server.queue_wait_seconds" with
  | Some (Lg_support.Metrics.Histogram h) ->
      Alcotest.(check (float 1e-9))
        "sequential queue wait is identically zero" 0.0
        h.Lg_support.Metrics.h_sum
  | _ -> Alcotest.fail "unreachable"

(* The observability acceptance scenario: healthy jobs with client-minted
   trace ids, then a poisoned tenant crashed into quarantine — the
   request spans must carry the trace ids into the merged Chrome trace,
   the crashes must leave flight-recorder postmortem dumps, the tenants
   op must attribute jobs/failures/strikes to the poisoned digest, and
   both SLO histograms must expose p50/p95/p99 in JSON and Prometheus
   form over the socket. *)
let test_serve_observability () =
  with_temp_dir @@ fun dir ->
  let grammar = write_temp_grammar () in
  Fun.protect ~finally:(fun () -> Sys.remove grammar) @@ fun () ->
  let socket = Filename.concat dir "srv.sock" in
  let pm_dir = Filename.concat dir "postmortems" in
  let tracer = Lg_support.Trace.create () in
  let chaos =
    (* no random rolls: only the poison substring fires, deterministically *)
    Chaos.create ~poison:"poison"
      { Chaos.c_seed = 7; c_rate = 0.0; c_kinds = [] }
  in
  let server =
    Thread.create
      (fun () ->
        Server.serve ~workers:2 ~queue_capacity:8 ~quarantine_after:3 ~chaos
          ~tracer ~postmortem_dir:pm_dir ~socket ())
      ()
  in
  wait_for_socket socket;
  let parse = Lg_support.Json_out.parse in
  (* healthy jobs, each under its own client-minted trace id *)
  let tids =
    List.map
      (fun i ->
        let tid = Server.mint_trace_id () in
        let doc =
          match
            job_request
              (Jobfile.make ~id:(Printf.sprintf "ok-%d" i)
                 ~op:Jobfile.Analyze ~file:grammar ())
          with
          | Lg_support.Json_out.Obj members ->
              Lg_support.Json_out.Obj
                (members @ [ ("trace", Lg_support.Json_out.Str tid) ])
          | _ -> Alcotest.fail "job_request shape"
        in
        let r = Server.request ~attempts:4 ~backoff:0.01 ~socket doc in
        Alcotest.(check bool)
          (Printf.sprintf "healthy job %d ok" i)
          true (response_ok r);
        (match Lg_support.Json_out.member "trace" r with
        | Some (Lg_support.Json_out.Str t) ->
            Alcotest.(check string) "trace id echoed" tid t
        | _ -> Alcotest.fail "response must echo the trace id");
        tid)
      [ 1; 2; 3 ]
  in
  (* the poisoned tenant: three worker crashes, then the quarantine
     refusal — all charged to the same (language:linguist) digest *)
  let poison i =
    Jobfile.make
      ~id:(Printf.sprintf "poison-%d" i)
      ~op:Jobfile.Analyze ~file:grammar ()
  in
  let exits =
    List.map
      (fun i ->
        response_exit
          (Server.request ~attempts:4 ~backoff:0.01 ~socket
             (job_request (poison i))))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int))
    "three crashes then a quarantine refusal" [ 51; 51; 51; 52 ] exits;
  (* crash dumps: the flight recorder left a postmortem per crash *)
  let dumps = Sys.readdir pm_dir in
  Alcotest.(check bool)
    "postmortem dump per worker crash" true
    (Array.length dumps >= 3);
  let dump = parse (read_whole (Filename.concat pm_dir dumps.(0))) in
  (match Lg_support.Json_out.member "reason" dump with
  | Some (Lg_support.Json_out.Str "worker_crashed") -> ()
  | _ -> Alcotest.fail "dump must carry the typed reason");
  (match Lg_support.Json_out.member "exit" dump with
  | Some v -> Alcotest.(check int) "dump exit code" 51 (Lg_support.Json_out.to_int v)
  | None -> Alcotest.fail "dump must carry the exit code");
  (match Lg_support.Json_out.member "events" dump with
  | Some (Lg_support.Json_out.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "dump must replay the job's lifecycle events");
  (* health: worker-fleet and queue high-water columns *)
  let health = Server.request ~socket (parse {|{"op":"health"}|}) in
  Alcotest.(check int) "workers live again" 2
    (Lg_support.Json_out.to_int (response_field health "workers_live"));
  Alcotest.(check bool)
    "restarts counted" true
    (Lg_support.Json_out.to_int (response_field health "worker_restarts") >= 3);
  Alcotest.(check bool)
    "queue peak reported" true
    (Lg_support.Json_out.to_int (response_field health "queue_peak") >= 0);
  (* each crash parked the replaced domain until drain joins it *)
  Alcotest.(check bool)
    "replaced domains parked" true
    (Lg_support.Json_out.to_int (response_field health "workers_parked") >= 3);
  (* SLO histograms: percentile members in the JSON snapshot *)
  let m = Server.request ~socket (parse {|{"op":"metrics"}|}) in
  let metrics_doc = response_field m "metrics" in
  List.iter
    (fun name ->
      match Lg_support.Json_out.member name metrics_doc with
      | Some h ->
          List.iter
            (fun p ->
              match Lg_support.Json_out.member p h with
              | Some (Lg_support.Json_out.Num v) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s sane" name p)
                    true (v >= 0.0)
              | _ -> Alcotest.failf "%s lacks %s" name p)
            [ "p50"; "p95"; "p99" ]
      | None -> Alcotest.failf "metrics lack %s" name)
    [ "server.queue_wait_seconds"; "server.service_seconds" ];
  (* ... and quantile series in the Prometheus exposition *)
  let prom =
    Server.request ~socket (parse {|{"op":"metrics","format":"prometheus"}|})
  in
  let text =
    match response_field prom "prometheus" with
    | Lg_support.Json_out.Str s -> s
    | _ -> Alcotest.fail "prometheus member must be a string"
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) (line ^ " present") true (contains text line))
    [
      "server_queue_wait_seconds{quantile=\"0.5\"}";
      "server_queue_wait_seconds{quantile=\"0.99\"}";
      "server_service_seconds{quantile=\"0.95\"}";
      "server_service_seconds_bucket{le=\"+Inf\"}";
    ];
  (* per-tenant accounting: everything attributed to the poisoned digest *)
  let tn = Server.request ~socket (parse {|{"op":"tenants"}|}) in
  let rows =
    match response_field tn "tenants" with
    | Lg_support.Json_out.Arr rows -> rows
    | _ -> Alcotest.fail "tenants must be an array"
  in
  let row =
    match
      List.find_opt
        (fun row ->
          Lg_support.Json_out.member "label" row
          = Some (Lg_support.Json_out.Str "language:linguist"))
        rows
    with
    | Some row -> row
    | None -> Alcotest.fail "poisoned tenant missing from the ledger"
  in
  let gi name = Lg_support.Json_out.to_int (response_field row name) in
  Alcotest.(check int) "every job attributed" 7 (gi "jobs");
  Alcotest.(check int) "successes attributed" 3 (gi "ok");
  Alcotest.(check int) "strikes attributed" 3 (gi "strikes");
  (match Lg_support.Json_out.member "quarantined" row with
  | Some (Lg_support.Json_out.Bool true) -> ()
  | _ -> Alcotest.fail "tenant must show as quarantined");
  (match Lg_support.Json_out.member "failures" row with
  | Some failures ->
      Alcotest.(check int) "crashes by exit class" 3
        (Lg_support.Json_out.to_int (response_field failures "51"));
      Alcotest.(check int) "refusals by exit class" 1
        (Lg_support.Json_out.to_int (response_field failures "52"))
  | None -> Alcotest.fail "tenant must break failures down by exit class");
  (match Lg_support.Json_out.member "cache" row with
  | Some cache ->
      Alcotest.(check bool)
        "session cache hits attributed" true
        (Lg_support.Json_out.to_int (response_field cache "hits") >= 2)
  | None -> Alcotest.fail "tenant must carry its cache columns");
  (* queue-wait/service time totals accumulate for served jobs *)
  (match Lg_support.Json_out.member "service_seconds" row with
  | Some (Lg_support.Json_out.Num v) ->
      Alcotest.(check bool) "service time accumulated" true (v > 0.0)
  | _ -> Alcotest.fail "tenant must total service seconds");
  (try
     ignore
       (Server.request ~attempts:8 ~backoff:0.01 ~socket
          (parse {|{"op":"shutdown"}|}))
   with Unix.Unix_error _ | Failure _ -> ());
  Thread.join server;
  (* the merged Chrome trace carries every client-minted id on its
     request spans, over a queue.wait/service/response.write story *)
  let trace_path = Filename.concat dir "serve_trace.json" in
  Lg_support.Trace.write_chrome ~process_name:"test-serve" tracer
    ~path:trace_path;
  let chrome = read_whole trace_path in
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "trace id %s in the merged trace" tid)
        true (contains chrome tid))
    tids;
  let span_names =
    List.map
      (fun sp -> sp.Lg_support.Trace.sp_name)
      (Lg_support.Trace.spans tracer)
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " span present") true
        (List.mem name span_names))
    [ "request:job"; "queue.wait"; "service"; "response.write" ]

(* ---------------- the update op through the job pipeline ------- *)

let json = Lg_support.Json_out.parse

(* a serve on a private socket for the body of [f], stopped afterwards *)
let with_serve ?incremental ?chaos ?quarantine_after ?metrics ?postmortem_dir
    ?deadline f =
  with_temp_dir @@ fun dir ->
  let socket = Filename.concat dir "srv.sock" in
  let server =
    Thread.create
      (fun () ->
        Server.serve ~workers:1 ~queue_capacity:8 ?incremental ?chaos
          ?quarantine_after ?metrics ?postmortem_dir ?deadline ~socket ())
      ()
  in
  wait_for_socket socket;
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Server.request ~socket (json {|{"op":"shutdown"}|}))
       with Unix.Unix_error _ | Failure _ -> ());
      Thread.join server)
    (fun () -> f socket)

let update_request ?(doc = "ed.calc") ~tenant source =
  Lg_support.Json_out.Obj
    [
      ("op", Lg_support.Json_out.Str "update");
      tenant;
      ("doc", Lg_support.Json_out.Str doc);
      ("source", Lg_support.Json_out.Str source);
    ]

let desk_calc = ("language", Lg_support.Json_out.Str "desk_calc")

let response_str doc name =
  match response_field doc name with
  | Lg_support.Json_out.Str s -> s
  | _ -> Alcotest.failf "%S must be a string" name

let tenant_row socket label =
  match response_field (Server.request ~socket (json {|{"op":"tenants"}|})) "tenants" with
  | Lg_support.Json_out.Arr rows -> (
      match
        List.find_opt
          (fun row ->
            Lg_support.Json_out.member "label" row
            = Some (Lg_support.Json_out.Str label))
          rows
      with
      | Some row -> row
      | None -> Alcotest.failf "no tenants row for %s" label)
  | _ -> Alcotest.fail "tenants must be an array"

(* the outputs member the Demand oracle predicts for a desk_calc input *)
let desk_calc_oracle source =
  let t = Lg_languages.Desk_calc.translator () in
  let diag = Lg_support.Diag.create () in
  match Linguist.Translator.tree_of_source t ~file:"oracle" ~diag source with
  | None -> Alcotest.fail "oracle input must parse"
  | Some tree ->
      let r = Linguist.Demand.evaluate (Linguist.Translator.ir t) tree in
      Lg_support.Json_out.to_string
        (Lg_support.Json_out.Obj
           (List.map
              (fun (name, v) ->
                (name, Lg_support.Json_out.Str (Lg_support.Value.to_string v)))
              r.Linguist.Demand.outputs))

(* two edits of one buffer: the first evaluates fresh, the second reuses
   the parked state; both answer the oracle's outputs in the update
   response shape, and a drain then refuses further updates *)
let test_serve_update_incremental () =
  with_serve ~incremental:Batch.default_incremental @@ fun socket ->
  let kinds =
    List.map
      (fun source ->
        let r = Server.request ~socket (update_request ~tenant:desk_calc source) in
        Alcotest.(check bool) "update ok" true (response_ok r);
        Alcotest.(check string)
          "outputs = Demand oracle" (desk_calc_oracle source)
          (Lg_support.Json_out.to_string (response_field r "outputs"));
        Alcotest.(check string) "doc echoed" "ed.calc" (response_str r "doc");
        Alcotest.(check string)
          "session is the tenant digest"
          (Session.digest ~kind:"language" ~source:"desk_calc")
          (response_str r "session");
        ignore (response_field r "tree_size");
        ignore (response_str r "trace");
        response_str (response_field r "incremental") "kind")
      [ "x := 1 + 2;\nprint x;\n"; "x := 1 + 3;\nprint x;\n" ]
  in
  Alcotest.(check (list string)) "fresh, then incremental"
    [ "fresh"; "incremental" ] kinds;
  ignore (Server.request ~socket (json {|{"op":"drain"}|}));
  let refused =
    Server.request ~socket (update_request ~tenant:desk_calc "print 1;\n")
  in
  Alcotest.(check bool) "update refused while draining" false
    (response_ok refused);
  Alcotest.(check string) "refusal says draining" "draining"
    (response_str refused "error")

(* an update crosses the chaos gate like any job: a crash roll answers
   the typed exit, strikes the tenant and leaves a postmortem *)
let test_serve_update_chaos () =
  let chaos =
    match Chaos.parse_spec "1:1.0:crash" with
    | Ok spec -> Chaos.create spec
    | Error msg -> Alcotest.fail msg
  in
  with_temp_dir @@ fun pm_dir ->
  with_serve ~chaos ~postmortem_dir:pm_dir @@ fun socket ->
  let r = Server.request ~socket (update_request ~tenant:desk_calc "print 1;\n") in
  Alcotest.(check bool) "crashed update fails" false (response_ok r);
  Alcotest.(check int) "typed worker_crashed" 51 (response_exit r);
  let row = tenant_row socket "language:desk_calc" in
  Alcotest.(check int) "tenant struck" 1
    (Lg_support.Json_out.to_int (response_field row "strikes"));
  Alcotest.(check bool) "postmortem written" true
    (Array.length (Sys.readdir pm_dir) >= 1)

(* quarantine is admission control ahead of chaos: once the tenant is
   quarantined, an update that chaos would crash is refused with 52
   without taking a worker down *)
let test_serve_update_quarantine () =
  let metrics = Lg_support.Metrics.create () in
  let chaos =
    Chaos.create ~poison:"poison" { Chaos.c_seed = 3; c_rate = 0.0; c_kinds = [] }
  in
  with_serve ~chaos ~quarantine_after:2 ~metrics @@ fun socket ->
  let exit_of doc =
    response_exit
      (Server.request ~socket (update_request ~doc ~tenant:desk_calc "print 1;\n"))
  in
  Alcotest.(check (list int)) "two crashes" [ 51; 51 ]
    (List.map exit_of [ "poison-1"; "poison-2" ]);
  let crashes = counter metrics "server.worker_crashes" in
  Alcotest.(check int) "quarantined tenant refused" 52 (exit_of "poison-3");
  Alcotest.(check int) "refusal took no worker down" crashes
    (counter metrics "server.worker_crashes")

(* updates and translate jobs naming one grammar share a tenants row; a
   grammar tenant reads its input as terminal names *)
let test_serve_update_tenant_row () =
  let grammar = write_temp_grammar () in
  Fun.protect ~finally:(fun () -> Sys.remove grammar) @@ fun () ->
  with_serve @@ fun socket ->
  let translate =
    job_request
      (Jobfile.make ~id:"t1" ~source:"PRINT NUM SEMI"
         ~op:(Jobfile.Translate (Jobfile.Grammar grammar))
         ~file:"t1.calc" ())
  in
  Alcotest.(check bool) "translate ok" true
    (response_ok (Server.request ~socket translate));
  Alcotest.(check bool) "update ok" true
    (response_ok
       (Server.request ~socket
          (update_request
             ~tenant:("grammar", Lg_support.Json_out.Str grammar)
             "PRINT NUM PLUS NUM SEMI")));
  let row = tenant_row socket ("translator:" ^ Filename.basename grammar) in
  Alcotest.(check int) "both charged to one row" 2
    (Lg_support.Json_out.to_int (response_field row "jobs"))

(* ---------------- the flight recorder ---------------- *)

(* the postmortem dumps in [dir], oldest first, as (kinds, last event) *)
let dumps dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun name -> Filename.check_suffix name ".json")
  |> List.map (fun name ->
         let doc = json (read_whole (Filename.concat dir name)) in
         let events =
           match response_field doc "events" with
           | Lg_support.Json_out.Arr events -> events
           | _ -> Alcotest.fail "events must be an array"
         in
         (List.map (fun ev -> response_str ev "kind") events,
          List.nth events (List.length events - 1)))

(* a job id reused across requests (a retried request, an edited
   buffer's update:<doc>) dumps only its own request's story each time *)
let test_serve_postmortem_repeated_id () =
  let grammar = write_temp_grammar () in
  Fun.protect ~finally:(fun () -> Sys.remove grammar) @@ fun () ->
  let chaos =
    Chaos.create ~poison:"poison" { Chaos.c_seed = 5; c_rate = 0.0; c_kinds = [] }
  in
  with_temp_dir @@ fun pm_dir ->
  with_serve ~chaos ~quarantine_after:5 ~postmortem_dir:pm_dir @@ fun socket ->
  let job = job_request (Jobfile.make ~id:"poison-x" ~op:Jobfile.Analyze ~file:grammar ()) in
  Alcotest.(check (list int)) "three typed crashes" [ 51; 51; 51 ]
    (List.map (fun _ -> response_exit (Server.request ~socket job)) [ 1; 2; 3 ]);
  let dumped = dumps pm_dir in
  Alcotest.(check int) "one dump per crash" 3 (List.length dumped);
  List.iter
    (fun (kinds, last) ->
      Alcotest.(check int) "exactly one submitted" 1
        (List.length (List.filter (String.equal "submitted") kinds));
      Alcotest.(check string) "ends with failed" "failed" (response_str last "kind");
      Alcotest.(check int) "failed exit" 51 (response_exit last))
    dumped

(* a job wedged past its deadline dies with its run never started: the
   dump tells submitted, dequeued, then the typed failure *)
let test_serve_postmortem_deadline () =
  let grammar = write_temp_grammar () in
  Fun.protect ~finally:(fun () -> Sys.remove grammar) @@ fun () ->
  let chaos =
    match Chaos.parse_spec "1:1.0:wedge" with
    | Ok spec -> Chaos.create spec
    | Error msg -> Alcotest.fail msg
  in
  with_temp_dir @@ fun pm_dir ->
  with_serve ~chaos ~deadline:0.1 ~postmortem_dir:pm_dir @@ fun socket ->
  let r =
    Server.request ~socket
      (job_request (Jobfile.make ~id:"wedged" ~op:Jobfile.Check ~file:grammar ()))
  in
  Alcotest.(check int) "typed deadline_exceeded" 50 (response_exit r);
  match dumps pm_dir with
  | [ (kinds, last) ] ->
      Alcotest.(check (list string)) "lifecycle up to the deadline"
        [ "submitted"; "dequeued"; "failed" ] kinds;
      Alcotest.(check int) "failed exit" 50 (response_exit last)
  | d -> Alcotest.failf "expected one dump, found %d" (List.length d)

(* a frame nested past Json_out.max_depth is a bad request, and the
   connection and server carry on *)
let test_serve_deep_nesting () =
  with_serve @@ fun socket ->
  let fd = Transport.connect (Transport.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let exchange payload =
    Transport.write_frame fd payload;
    match Transport.read_frame fd with
    | Some r -> json r
    | None -> Alcotest.fail "connection closed"
  in
  let r = exchange (String.make 1_000_000 '[') in
  Alcotest.(check bool) "deep frame refused" false (response_ok r);
  Alcotest.(check bool) "as a bad request" true
    (contains (response_str r "error") "bad request");
  Alcotest.(check bool) "ping still answers" true
    (response_ok (exchange {|{"op":"ping"}|}))

let () =
  Alcotest.run "server"
    [
      ( "pool",
        [
          Alcotest.test_case "results keep submission order" `Quick
            test_pool_order;
          Alcotest.test_case "bounded queue rejects with a diagnostic" `Quick
            test_pool_backpressure;
          Alcotest.test_case "a raising job fails alone" `Quick
            test_pool_exception_isolation;
          Alcotest.test_case "drain runs the backlog and closes intake" `Quick
            test_pool_drain;
          Alcotest.test_case "worker minor heap floor is 1M words" `Quick
            test_pool_minor_heap_floor;
        ] );
      ( "hammer",
        [
          Alcotest.test_case "metrics registry is domain-safe" `Quick
            test_metrics_hammer;
          Alcotest.test_case "private tracers absorb losslessly" `Quick
            test_trace_absorb_hammer;
          Alcotest.test_case "interner is domain-safe" `Quick
            test_interner_hammer;
          Alcotest.test_case "io stats counters are exact" `Quick
            test_io_stats_hammer;
          Alcotest.test_case "once initializes exactly once" `Quick
            test_once_hammer;
        ] );
      ( "session",
        [
          Alcotest.test_case "concurrent misses share one build" `Quick
            test_session_builds_once;
          Alcotest.test_case "lru evicts the coldest ready entry" `Quick
            test_session_lru_eviction;
          Alcotest.test_case "failed build releases its key" `Quick
            test_session_failed_build_releases_key;
          Alcotest.test_case "digest separates kind and source" `Quick
            test_session_digest;
        ] );
      ( "jobfile",
        [
          Alcotest.test_case "emit/parse round-trip" `Quick
            test_jobfile_roundtrip;
          Alcotest.test_case "malformed documents are rejected" `Quick
            test_jobfile_rejects;
          Alcotest.test_case "id-less jobs get positional ids" `Quick
            test_jobfile_default_ids;
          Alcotest.test_case "integer fields are checked" `Quick
            test_jobfile_integer_fields;
        ] );
      ( "batch",
        [
          Alcotest.test_case "faulted job fails alone, typed" `Quick
            test_batch_fault_isolation;
          Alcotest.test_case "missing input is a per-job failure" `Quick
            test_batch_missing_file;
          Alcotest.test_case "removed store name is refused" `Quick
            test_batch_removed_store;
          Alcotest.test_case "corpus pooled = sequential, byte-identical"
            `Quick test_batch_corpus_differential;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "worker crash fails typed and respawns" `Quick
            test_pool_crash_respawn;
          Alcotest.test_case "watchdog enforces deadlines" `Quick
            test_pool_deadline;
          Alcotest.test_case "expired-in-queue jobs never run" `Quick
            test_pool_deadline_in_queue;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "strikes quarantine and evict lifts" `Quick
            test_session_quarantine;
          Alcotest.test_case "clear resets strike records" `Quick
            test_session_quarantine_clear;
          Alcotest.test_case "poisoned tenant ends refused (batch)" `Quick
            test_batch_poison_quarantine;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "spec codec accepts and rejects" `Quick
            test_chaos_spec;
          Alcotest.test_case "one spec grammar, both kind tables" `Quick
            test_spec_parsers_agree;
          Alcotest.test_case "rolls are deterministic, poison absolute" `Quick
            test_chaos_determinism;
          Alcotest.test_case "survivors byte-identical under crashes" `Quick
            test_batch_chaos_differential;
          Alcotest.test_case "jobfile carries deadlines" `Quick
            test_jobfile_deadline;
        ] );
      ( "serve",
        [
          Alcotest.test_case "drain answers accepted work, refuses new"
            `Quick test_serve_shutdown_under_load;
          Alcotest.test_case "retrying client rides out drops" `Quick
            test_serve_retry_client;
          Alcotest.test_case "chaotic 200-job corpus run survives" `Slow
            test_serve_chaos_endurance;
          Alcotest.test_case "nesting past the bound is a bad request"
            `Quick test_serve_deep_nesting;
        ] );
      ( "update",
        [
          Alcotest.test_case "fresh then incremental, oracle outputs" `Quick
            test_serve_update_incremental;
          Alcotest.test_case "chaos crash answers typed 51" `Quick
            test_serve_update_chaos;
          Alcotest.test_case "quarantine refuses before chaos" `Quick
            test_serve_update_quarantine;
          Alcotest.test_case "shares the translate job's tenants row" `Quick
            test_serve_update_tenant_row;
        ] );
      ( "observability",
        [
          Alcotest.test_case "sequential runs publish server.* metrics"
            `Quick test_run_sequential_metrics;
          Alcotest.test_case
            "traces, postmortems, tenants and SLO percentiles" `Quick
            test_serve_observability;
          Alcotest.test_case "repeated job id dumps one request" `Quick
            test_serve_postmortem_repeated_id;
          Alcotest.test_case "deadline dump stops at dequeued" `Quick
            test_serve_postmortem_deadline;
        ] );
    ]
