(* Per-job isolation is directory-deep: every job gets a fresh private
   temp directory as its APT store root, so two jobs evaluating the same
   grammar at once can never collide on an intermediate file, and a
   faulted job's damaged files vanish with its directory. *)

let tmp_counter = Atomic.make 0

let make_temp_dir () =
  let rec go attempts =
    let name =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "linguist-job-%d-%d" (Unix.getpid ())
           (Atomic.fetch_and_add tmp_counter 1))
    in
    match Unix.mkdir name 0o700 with
    | () -> name
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when attempts < 1000 ->
        go (attempts + 1)
  in
  go 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun entry -> rm_rf (Filename.concat path entry))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

type outcome = {
  o_id : string;
  o_op : string;
  o_file : string;
  o_ok : bool;
  o_exit : int;
  o_error : string option;
  o_payload : Lg_support.Json_out.t;
  o_seconds : float;
  o_update : (string * Lg_incremental.Incr.mode) option;
}

type summary = {
  outcomes : outcome list;
  n_ok : int;
  n_failed : int;
  workers : int;
  wall_seconds : float;
}

open Lg_support.Json_out

let engine_options_of (j : Jobfile.job) ~dir =
  let config =
    {
      Lg_apt.Apt_store.dir = Some dir;
      page_size =
        Option.value j.Jobfile.j_page_size
          ~default:Lg_apt.Apt_store.default_config.Lg_apt.Apt_store.page_size;
      faults = j.Jobfile.j_faults;
    }
  in
  {
    Linguist.Engine.default_options with
    backend = Lg_apt.Aptfile.backend_of_store_name ~config j.Jobfile.j_store;
    depth_budget =
      Option.value j.Jobfile.j_depth_budget
        ~default:Linguist.Engine.default_depth_budget;
    node_budget = Option.value j.Jobfile.j_node_budget ~default:0;
  }

let check_payload (a : Linguist.Driver.artifact) =
  Obj
    [
      ("passes", int a.Linguist.Driver.passes.Linguist.Pass_assign.n_passes);
      ( "first_direction",
        Str
          (match
             Linguist.Pass_assign.direction a.Linguist.Driver.passes 1
           with
          | Linguist.Pass_assign.L2r -> "left-to-right"
          | Linguist.Pass_assign.R2l -> "right-to-left") );
      ("diagnostics", int (Lg_support.Diag.count a.Linguist.Driver.diag));
      ("source_lines", int a.Linguist.Driver.source_lines);
    ]

let analyze_payload (a : Lg_languages.Linguist_ag.analysis) =
  Obj
    [
      ("symbols", int a.Lg_languages.Linguist_ag.n_symbols);
      ("attr_decls", int a.Lg_languages.Linguist_ag.n_attr_decls);
      ("productions", int a.Lg_languages.Linguist_ag.n_productions);
      ("semantic_functions", int a.Lg_languages.Linguist_ag.n_semantic_functions);
      ("copy_estimate", int a.Lg_languages.Linguist_ag.n_copy_estimate);
      ("terminals", int a.Lg_languages.Linguist_ag.n_terminals);
      ("nonterminals", int a.Lg_languages.Linguist_ag.n_nonterminals);
      ("limbs", int a.Lg_languages.Linguist_ag.n_limbs);
      ( "messages",
        Arr
          (List.map
             (fun (line, tag, name) ->
               Obj [ ("line", int line); ("tag", Str tag); ("name", Str name) ])
             a.Lg_languages.Linguist_ag.messages) );
      ("report_entries", int (List.length a.Lg_languages.Linguist_ag.report));
    ]

(* How [update] jobs evaluate: the incremental subsystem's churn
   threshold. [None] (the default) still serves updates —
   each one evaluates from scratch — but keeps no per-document state. *)
type incremental = Lg_incremental.Incr.config

let default_incremental = Lg_incremental.Incr.default_config

let translate_payload (tr : Linguist.Translator.translation) =
  Obj
    [
      ( "outputs",
        Obj
          (List.map
             (fun (name, v) -> (name, Str (Lg_support.Value.to_string v)))
             tr.Linguist.Translator.outputs) );
      ("tree_size", int tr.Linguist.Translator.tree_size);
      ("input_lines", int tr.Linguist.Translator.input_lines);
      ( "rules_evaluated",
        int
          tr.Linguist.Translator.eval_stats.Linguist.Engine.rules_evaluated );
    ]

(* The update payload deliberately omits evaluation-mode statistics:
   with a worker pool, same-doc updates may run in any order, so which
   one finds cached state is nondeterministic — but the outputs are not
   (the differential contract), and only they are emitted, keeping
   [to_json ~timings:false] byte-identical across worker counts. *)
let update_payload ~outputs ~tree_size ~input_lines =
  Obj
    [
      ( "outputs",
        Obj
          (List.map
             (fun (name, v) -> (name, Str (Lg_support.Value.to_string v)))
             outputs) );
      ("tree_size", int tree_size);
      ("input_lines", int input_lines);
    ]

(* Resolve a translate/update tenant to its cached translator session:
   built-ins by name, grammar files by content digest (two jobs naming
   the same .ag text share one compilation). *)
let tenant_translator ~sessions = function
  | Jobfile.Language lang -> Session.language_session sessions lang
  | Jobfile.Grammar path ->
      Session.translator_session sessions ~file:path ~source:(read_file path)
        ()

let count_lines source =
  let n = String.length source in
  let lines = ref 0 in
  String.iter (fun c -> if c = '\n' then incr lines) source;
  if n > 0 && source.[n - 1] <> '\n' then incr lines;
  !lines

let run_job ~sessions ?incremental (j : Jobfile.job) =
  let t0 = Unix.gettimeofday () in
  let finish ~ok ~code ~error payload =
    {
      o_id = j.Jobfile.j_id;
      o_op = Jobfile.op_name j.Jobfile.j_op;
      o_file = j.Jobfile.j_file;
      o_ok = ok;
      o_exit = code;
      o_error = error;
      o_payload = payload;
      o_seconds = Unix.gettimeofday () -. t0;
      o_update = None;
    }
  in
  (* A typed store error names the APT file it caught — a path inside
     this job's private temp dir, random per run. Leaving it in the
     outcome would break the byte-identical guarantee of
     [to_json ~timings:false], so every token rooted in the job dir is
     scrubbed down to a stable placeholder. *)
  let scrub_dir ~dir msg =
    let dlen = String.length dir and n = String.length msg in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if !i + dlen <= n && String.sub msg !i dlen = dir then begin
        Buffer.add_string buf "<job-tmp>";
        i := !i + dlen;
        while !i < n && msg.[!i] <> ' ' && msg.[!i] <> ':' do
          incr i
        done
      end
      else begin
        Buffer.add_char buf msg.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  match make_temp_dir () with
  | exception e ->
      finish ~ok:false ~code:1 ~error:(Some (Printexc.to_string e)) Null
  | dir -> (
  let failed ~code msg =
    finish ~ok:false ~code ~error:(Some (scrub_dir ~dir msg)) Null
  in
  match
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let source =
      (* inline source wins: a fabric-shipped job carries its input text
         and keeps j_file as a label only *)
      match j.Jobfile.j_source with
      | Some s -> s
      | None -> read_file j.Jobfile.j_file
    in
    match j.Jobfile.j_op with
    | Jobfile.Check -> (
        (* [check_payload] reads only passes, diagnostics and source
           lines: the listing and generated code would be thrown away *)
        let options =
          {
            Linguist.Driver.default_options with
            emit_listing = false;
            emit_code = false;
          }
        in
        match
          Linguist.Driver.process ~options ~file:j.Jobfile.j_file source
        with
        | Ok artifact -> finish ~ok:true ~code:0 ~error:None (check_payload artifact)
        | Error diag ->
            failed ~code:1
              (Linguist.Listing.errors_only ~source ~file:j.Jobfile.j_file diag))
    | Jobfile.Analyze ->
        let engine_options = engine_options_of j ~dir in
        let session = Session.language_session sessions "linguist" in
        let translator = session.Session.s_translator in
        let a =
          Lg_languages.Linguist_ag.analyze ~engine_options ~translator source
        in
        finish ~ok:true ~code:0 ~error:None (analyze_payload a)
    | Jobfile.Translate tenant -> (
        let engine_options = engine_options_of j ~dir in
        let session = tenant_translator ~sessions tenant in
        let translator = session.Session.s_translator in
        match
          Linguist.Translator.translate ~engine_options translator
            ~file:j.Jobfile.j_file source
        with
        | Ok tr -> finish ~ok:true ~code:0 ~error:None (translate_payload tr)
        | Error diag ->
            failed ~code:1
              (Linguist.Listing.errors_only ~source ~file:j.Jobfile.j_file diag))
    | Jobfile.Update tenant -> (
        let engine_options = engine_options_of j ~dir in
        let session = tenant_translator ~sessions tenant in
        let translator = session.Session.s_translator in
        let diag = Lg_support.Diag.create () in
        match
          Linguist.Translator.tree_of_source translator ~file:j.Jobfile.j_file
            ~diag source
        with
        | None ->
            failed ~code:1
              (Linguist.Listing.errors_only ~source ~file:j.Jobfile.j_file diag)
        | Some tree ->
            let plan = Linguist.Translator.plan translator in
            let result =
              match incremental with
              | None ->
                  (* stateless: every update evaluates from scratch *)
                  fst
                    (Lg_incremental.Incr.update default_incremental ~plan
                       ~engine_options ~tree)
              | Some inc ->
                  let doc =
                    Option.value j.Jobfile.j_doc ~default:j.Jobfile.j_file
                  in
                  let slot =
                    Session.doc_slot sessions ~digest:session.Session.s_digest
                      ~doc
                  in
                  Mutex.lock slot.Session.doc_lock;
                  Fun.protect
                    ~finally:(fun () -> Mutex.unlock slot.Session.doc_lock)
                    (fun () ->
                      let result, next =
                        Lg_incremental.Incr.update ?state:slot.Session.doc_state
                          inc ~plan ~engine_options ~tree
                      in
                      slot.Session.doc_state <- next;
                      result)
            in
            {
              (finish ~ok:true ~code:0 ~error:None
                 (update_payload ~outputs:result.Lg_incremental.Incr.outputs
                    ~tree_size:result.Lg_incremental.Incr.tree_size
                    ~input_lines:(count_lines source)))
              with
              o_update =
                Some (session.Session.s_digest, result.Lg_incremental.Incr.mode);
            })
  with
  | outcome -> outcome
  | exception Lg_apt.Apt_error.Error e ->
      failed ~code:(Lg_apt.Apt_error.exit_code e) (Lg_apt.Apt_error.to_string e)
  | exception Server_error.Error e ->
      (* e.g. a quarantined tenant refused at session lookup *)
      failed ~code:(Server_error.exit_code e) (Server_error.to_string e)
  | exception Failure msg -> failed ~code:1 msg
  | exception Sys_error msg -> failed ~code:1 msg
  | exception e -> failed ~code:1 (Printexc.to_string e))

let default_workers () =
  max 1 (min 4 (Domain.recommended_domain_count () - 1))

(* The session a job holds responsible when it takes a worker down: the
   digest its tenant would cache under, so strikes line up with what
   [find_or_build] will refuse once quarantined. [Check] compiles fresh
   every time — no session, no one to strike. *)
let culprit (j : Jobfile.job) =
  let of_tenant = function
    | Jobfile.Language lang ->
        Some (Session.digest ~kind:"language" ~source:lang, "language:" ^ lang)
    | Jobfile.Grammar path -> (
        match read_file path with
        | source ->
            Some
              ( Session.digest ~kind:"translator" ~source,
                "translator:" ^ Filename.basename path )
        | exception _ -> None)
  in
  match j.Jobfile.j_op with
  | Jobfile.Check -> None
  | Jobfile.Analyze ->
      Some
        ( Session.digest ~kind:"language" ~source:"linguist",
          "language:linguist" )
  | Jobfile.Translate t | Jobfile.Update t -> of_tenant t

(* admission control, ahead of everything else in the thunk (including
   chaos injection): a job naming a quarantined session is refused with
   the typed diagnostic before it can burn a worker *)
let quarantine_gate ~sessions (j : Jobfile.job) =
  Option.iter
    (fun (digest, _) -> Session.refuse_if_quarantined sessions ~digest)
    (culprit j)

(* runs in the worker, before the job proper: a [Crash_job] roll kills
   the worker through the supervision path, [Wedge_job] holds it until
   the watchdog's deadline (or just runs late without one) *)
let chaos_gate ?chaos (j : Jobfile.job) =
  match chaos with
  | None -> ()
  | Some c -> (
      match Chaos.on_job c ~id:j.Jobfile.j_id ~file:j.Jobfile.j_file with
      | None -> ()
      | Some Chaos.Delay_job -> Unix.sleepf (Chaos.delay_seconds c)
      | Some Chaos.Wedge_job -> Unix.sleepf (Chaos.wedge_seconds c)
      | Some Chaos.Crash_job -> raise (Pool.Crash "chaos: injected worker crash"))

let failure_outcome ?(metrics = Lg_support.Metrics.null) ~sessions
    (j : Jobfile.job) exn =
  let failed ~code msg =
    {
      o_id = j.Jobfile.j_id;
      o_op = Jobfile.op_name j.Jobfile.j_op;
      o_file = j.Jobfile.j_file;
      o_ok = false;
      o_exit = code;
      o_error = Some msg;
      o_payload = Null;
      o_seconds = 0.;
      o_update = None;
    }
  in
  match exn with
  | Server_error.Error e ->
      (match e with
      | Server_error.Worker_crashed _ | Server_error.Deadline_exceeded _ -> (
          match culprit j with
          | Some (digest, label) ->
              let n = Session.strike sessions ~digest ~label in
              if n = Session.quarantine_threshold sessions then
                Lg_support.Metrics.incr metrics "server.quarantined"
          | None -> ())
      | Server_error.Session_quarantined _ -> ());
      failed ~code:(Server_error.exit_code e) (Server_error.to_string e)
  | e -> failed ~code:1 (Printexc.to_string e)

(* run one job inside its own trace story, then splice that story into
   the run-wide trace; [absorb] is a no-op when the parent is disabled *)
let traced_job ~parent ~sessions ?incremental j =
  let jt =
    if Lg_support.Trace.enabled parent then Lg_support.Trace.create ()
    else Lg_support.Trace.null
  in
  let installed = Lg_support.Trace.ambient () in
  Lg_support.Trace.install jt;
  Fun.protect
    ~finally:(fun () ->
      Lg_support.Trace.install installed;
      Lg_support.Trace.absorb parent jt)
    (fun () ->
      Lg_support.Trace.span jt ~cat:"job" j.Jobfile.j_id (fun () ->
          run_job ~sessions ?incremental j))

let summarize ~workers ~wall outcomes =
  let n_ok = List.length (List.filter (fun o -> o.o_ok) outcomes) in
  {
    outcomes;
    n_ok;
    n_failed = List.length outcomes - n_ok;
    workers;
    wall_seconds = wall;
  }

let run ?workers ?sessions ?metrics ?tracer ?incremental ?chaos ?deadline jobs =
  let workers = match workers with Some w -> w | None -> default_workers () in
  let metrics =
    match metrics with Some m -> m | None -> Lg_support.Metrics.ambient ()
  in
  let sessions =
    match sessions with
    | Some c -> c
    | None -> Session.create_cache ~metrics ()
  in
  let parent =
    match tracer with Some t -> t | None -> Lg_support.Trace.ambient ()
  in
  (* jobfile deadline wins over the run default *)
  let job_deadline (j : Jobfile.job) =
    match j.Jobfile.j_deadline with Some _ as d -> d | None -> deadline
  in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    if workers <= 0 then
      (* No pool, but the same server.* series the pool would publish —
         a sequential run is comparable to a pooled one on the metrics
         axis, not only on the payload axis. Queue wait is identically
         zero: the calling domain "dequeues" each job the instant it is
         "submitted". *)
      List.map
        (fun j ->
          Lg_support.Metrics.incr metrics "server.jobs";
          Lg_support.Metrics.observe metrics
            ~buckets:Lg_support.Metrics.latency_buckets
            "server.queue_wait_seconds" 0.0;
          let started = Unix.gettimeofday () in
          let outcome =
            match
              quarantine_gate ~sessions j;
              chaos_gate ?chaos j;
              traced_job ~parent ~sessions ?incremental j
            with
            | o -> o
            | exception Pool.Crash msg ->
                Lg_support.Metrics.incr metrics "server.worker_crashes";
                failure_outcome ~metrics ~sessions j
                  (Server_error.Error
                     (Server_error.Worker_crashed
                        { job = j.Jobfile.j_id; detail = msg }))
            | exception Server_error.Error e ->
                failure_outcome ~metrics ~sessions j (Server_error.Error e)
          in
          let elapsed = Unix.gettimeofday () -. started in
          Lg_support.Metrics.observe metrics
            ~buckets:Lg_support.Metrics.latency_buckets
            "server.service_seconds" elapsed;
          Lg_support.Metrics.observe metrics "server.job_seconds" elapsed;
          outcome)
        jobs
    else begin
      let pool =
        Pool.create ~metrics ~workers
          ~queue_capacity:(max 1 (List.length jobs))
          ()
      in
      Fun.protect ~finally:(fun () -> Pool.drain pool) @@ fun () ->
      let handles =
        List.map
          (fun j ->
            match
              Pool.submit ~label:j.Jobfile.j_id ~lane:Pool.Bulk
                ?deadline:(job_deadline j) pool
                (fun () ->
                  quarantine_gate ~sessions j;
                  chaos_gate ?chaos j;
                  traced_job ~parent ~sessions ?incremental j)
            with
            | Ok h -> h
            | Error _ ->
                (* capacity = job count: unreachable, but keep it total *)
                assert false)
          jobs
      in
      List.map2
        (fun j h ->
          match Pool.await h with
          | Ok outcome -> outcome
          | Error e -> failure_outcome ~metrics ~sessions j e)
        jobs handles
    end
  in
  summarize ~workers:(max workers 0) ~wall:(Unix.gettimeofday () -. t0) outcomes

let run_sequential ?sessions ?metrics ?tracer ?incremental jobs =
  run ~workers:0 ?sessions ?metrics ?tracer ?incremental jobs

let outcome_to_json ~timings o =
  Obj
    ([
       ("id", Str o.o_id);
       ("op", Str o.o_op);
       ("file", Str o.o_file);
       ("ok", Bool o.o_ok);
       ("exit", int o.o_exit);
       ( "error",
         match o.o_error with Some msg -> Str msg | None -> Null );
       ("payload", o.o_payload);
     ]
    @ if timings then [ ("seconds", Num o.o_seconds) ] else [])

let to_json ?(timings = false) s =
  Obj
    ([
       ("linguist_batch", int 1);
       ("jobs", Arr (List.map (outcome_to_json ~timings) s.outcomes));
       ("n_ok", int s.n_ok);
       ("n_failed", int s.n_failed);
     ]
    @
    if timings then
      [
        ("workers", int s.workers);
        ("wall_seconds", Num s.wall_seconds);
        ( "jobs_per_second",
          Num
            (if s.wall_seconds > 0. then
               float_of_int (List.length s.outcomes) /. s.wall_seconds
             else 0.) );
      ]
    else [])
