(* fleet: [Coordinator.run] over two in-process TCP [Server.serve
   ~workers:1] instances (two evaluation domains, one per core of a
   2-core host). Each round is 48 seeded jobs: 8 medium-profile grammar
   tenants x 4 translate inputs, plus 16 self-hosted [analyze] jobs on
   30-90-production AG sources, then the same jobs through
   [Batch.run_sequential]. Dispatch, TCP framing and shard placement are
   on the path, and there is enough evaluation per job that the fabric
   could win. *)

open Common
module T = Lg_support.Trace
module Server = Lg_server.Server
module Transport = Lg_server.Transport
module Jobfile = Lg_server.Jobfile
module Session = Lg_server.Session
module Coordinator = Lg_fabric.Coordinator
module Emit = Lg_corpus.Emit

let n_workers = 2

type worker = { domain : unit Domain.t; socket : string; endpoint : Transport.endpoint }

type state = {
  workers : worker list;
  jobs : Jobfile.job list;
  seq_cache : Session.cache;  (** the sequential side's warm sessions *)
  corpus : Emit.corpus;
  ag_files : string list;
}

let grammars s = if s.smoke then 2 else 8
let inputs s = if s.smoke then 2 else 4
let analyses s = if s.smoke then 2 else 16

(* The job list, seeded in content and order; files are laid out under
   "fleet/" and paths in the jobs are relative to it. *)
let write_jobs s =
  let corpus =
    Emit.write ~dir:"."
      { Emit.default with
        Emit.s_seed = s.seed; s_grammars = grammars s; s_inputs = inputs s;
        s_profile = Lg_corpus.Corpus_gen.Medium; s_fault_every = 0 }
  in
  let translates =
    List.concat
      (List.init (grammars s) (fun i ->
           List.init (inputs s) (fun k ->
               Jobfile.make
                 ~id:(Printf.sprintf "t-g%d-i%d" i k)
                 ~op:(Jobfile.Translate (Jobfile.Grammar (Emit.grammar_rel i)))
                 ~file:(Emit.input_rel i k) ())))
  in
  let n = analyses s in
  let ag_files =
    List.init n (fun k ->
        let path = Printf.sprintf "ag/a%02d.ag" k in
        (* sizes spread evenly over 30..90 productions *)
        write_file path
          (Gen.ag ~seed:(Lg_corpus.Prng.derive s.seed (500 + k)) (30 + (60 * k / max 1 (n - 1))));
        path)
  in
  let analyzes =
    List.mapi
      (fun k path -> Jobfile.make ~id:(Printf.sprintf "a%02d" k) ~op:Jobfile.Analyze ~file:path ())
      ag_files
  in
  let jobs = Array.of_list (translates @ analyzes) in
  (corpus, ag_files, Array.to_list (Gen.shuffle (Gen.stream s.seed 30) jobs))

(* A serve instance on its own domain, on a Unix socket and a TCP port
   the OS picks. *)
let start_worker ~tracer i =
  let socket = Printf.sprintf "w%d.sock" i in
  let m = Mutex.create () and c = Condition.create () and port = ref 0 in
  let domain =
    Domain.spawn (fun () ->
        Server.serve ~workers:1 ~session_capacity:64 ~tracer ~events:Lg_support.Eventlog.null
          ~tcp:"127.0.0.1:0"
          ~on_tcp_port:(fun p ->
            Mutex.lock m;
            port := p;
            Condition.signal c;
            Mutex.unlock m)
          ~socket ())
  in
  Mutex.lock m;
  while !port = 0 do
    Condition.wait c m
  done;
  Mutex.unlock m;
  { domain; socket; endpoint = Transport.Tcp ("127.0.0.1", !port) }

let setup s ~tracers () =
  mkdir_p "fleet";
  Sys.chdir "fleet";
  let corpus, ag_files, jobs = write_jobs s in
  let workers = List.mapi (fun i tracer -> start_worker ~tracer i) tracers in
  (* warm-up: a whole round ships and builds every grammar on the
     worker the plan places it on; one job per tenant warms the
     sequential side's sessions *)
  ignore (Coordinator.run ~workers:(List.map (fun w -> w.endpoint) workers) jobs);
  let seq_cache = Session.create_cache ~capacity:64 () in
  let seen = Hashtbl.create 16 in
  let first_per_tenant (j : Jobfile.job) =
    match Batch.culprit j with
    | Some (digest, _) when not (Hashtbl.mem seen digest) ->
        Hashtbl.add seen digest ();
        true
    | _ -> false
  in
  ignore (Batch.run_sequential ~sessions:seq_cache (List.filter first_per_tenant jobs));
  { workers; jobs; seq_cache; corpus; ag_files }

let dispose st =
  List.iter
    (fun w -> ignore (Server.request ~socket:w.socket (J.Obj [ ("op", J.Str "shutdown") ])))
    st.workers;
  List.iter (fun w -> Domain.join w.domain) st.workers;
  Sys.chdir ".."

(* Each worker's [server.service_seconds] total, scraped over its
   socket. *)
let service_seconds st =
  List.map
    (fun w ->
      let resp = Server.request ~socket:w.socket (J.Obj [ ("op", J.Str "metrics") ]) in
      match
        Option.bind (J.member "metrics" resp) (fun m ->
            Option.bind (J.member "server.service_seconds" m) (J.member "sum"))
      with
      | Some v -> J.to_num v
      | None -> 0.0)
    st.workers

let run s =
  let tracers = List.init n_workers (fun _ -> if s.traced then T.create () else T.null) in
  let tracer = if s.traced then T.create () else T.null in
  let seq_tracer = if s.traced then T.create () else T.null in
  T.install tracer;
  let st, setup_s = repeated_setup ~reps:(setup_reps s) ~build:(setup s ~tracers) ~dispose in
  let endpoints = List.map (fun w -> w.endpoint) st.workers in
  let n_jobs = List.length st.jobs in
  let marks = List.map T.span_count tracers in
  let counts0 = Layers.counts tracers in
  let service0 = service_seconds st in
  let key = digest_key ~workload:"fleet" s in
  let fabric = ref [] and sequential = ref [] and failed = ref 0 in
  let grammar_puts = ref 0 and redispatched = ref 0 in
  each_round s ~nominal:1.6 (fun () ->
    let t0 = now () in
    let report = Coordinator.run ~workers:endpoints st.jobs in
    let t1 = now () in
    let seq = Batch.run_sequential ~sessions:st.seq_cache ~tracer:seq_tracer st.jobs in
    let t2 = now () in
    failed := !failed + batch_failures ~want:seq report.Coordinator.summary;
    failed := !failed + batch_failures ~want:seq seq;
    if not (check_digest key (batch_digest seq)) then failed := !failed + n_jobs;
    (* only counts and times outlive the round, so the outputs of past
       rounds do not add to peak_rss_mb *)
    List.iter
      (fun w -> grammar_puts := !grammar_puts + w.Coordinator.w_grammar_puts)
      report.Coordinator.workers;
    redispatched := !redispatched + report.Coordinator.redispatched;
    fabric := t1 -. t0 :: !fabric;
    sequential := t2 -. t1 :: !sequential);
  let delta = Layers.diff (Layers.counts tracers) counts0 in
  let busy = List.map2 ( -. ) (service_seconds st) service0 in
  T.install T.null;
  dispose st;
  let rounds = List.length !fabric in
  let walls = !fabric in
  let rate walls = median_rate ~per_round:n_jobs walls in
  let ops_per_s = rate walls in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "ops_per_s" "ops/s" ops_per_s;
      metric "seq_ops_per_s" "ops/s" (rate !sequential);
    ]
  in
  let plan_times =
    let affinity j = Option.map fst (Batch.culprit j) in
    List.init 20 (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (Lg_fabric.Shard.plan ~workers:n_workers ~affinity st.jobs));
        now () -. t0)
  in
  let capacity = float_of_int n_workers *. sum walls in
  let extra =
    [
      metric ~samples:20 "shard.plan_ms" "ms" (1e3 *. median plan_times);
      metric "fabric.grammar_puts" "count" (float_of_int !grammar_puts);
      metric "fabric.redispatched" "count" (float_of_int !redispatched);
      metric "fabric.worker_busy_frac" "ratio" (ratio (sum busy) capacity);
    ]
    @ List.mapi
        (fun i b -> metric (Printf.sprintf "fabric.worker%d_busy_frac" i) "ratio" (ratio b (sum walls)))
        busy
  in
  let layers =
    if not s.traced then []
    else
      let timed = List.concat (List.map2 Layers.since tracers marks) in
      let requests = sum (List.map (fun n -> n.Layers.sp.T.sp_dur) (Layers.requests timed)) in
      let linguist = Lg_languages.Linguist_ag.translator () in
      let front =
        Layers.front_probe
          (List.concat
             (List.mapi
                (fun i b ->
                  let t = corpus_translator b in
                  List.init (inputs s) (fun k ->
                      (t, read_file (Filename.concat "fleet" (Emit.input_rel i k)))))
                st.corpus.Emit.c_built)
          @ List.map (fun f -> (linguist, read_file (Filename.concat "fleet" f))) st.ag_files)
      in
      Layers.mean_ms "seq.engine.run_ms" (Layers.durations (Layers.all seq_tracer) "engine.run")
      :: Layers.common
        ~all_nodes:(List.concat_map Layers.all (tracer :: tracers))
        ~timed ~front ~ops:(n_jobs * rounds) ~delta ~busy_frac:(ratio (sum busy) capacity)
        ~traced_ops_per_s:ops_per_s
        ~extra:[ ("idle", Float.max 0.0 (capacity -. requests)) ]
  in
  {
    attempted = 2 * n_jobs * rounds;
    failed = !failed;
    metrics = e2e @ extra;
    layers;
    tracers = tracer :: seq_tracer :: tracers;
  }
