(* Concurrency shape: the accept loop and one OS thread per connection
   do only I/O and pool bookkeeping; actual evaluation runs on the
   pool's domains. Threads (not domains) are the right tool on the
   connection side — they're cheap, they block on reads, and they share
   the process's one listening socket and stop flag. *)

let max_frame = Transport.max_frame
let protocol_version = 1

(* framed I/O — 4-byte big-endian length, then the JSON payload — over
   any descriptor: the Unix socket, the TCP listener's connections, the
   coordinator's dispatch streams. The framing lives in Transport. *)
let read_frame = Transport.read_frame
let write_frame = Transport.write_frame

open Lg_support.Json_out

let error_response msg extra = Obj ([ ("ok", Bool false); ("error", Str msg) ] @ extra)

let outcome_response (o : Batch.outcome) =
  Obj
    [
      ("ok", Bool o.Batch.o_ok);
      ("id", Str o.Batch.o_id);
      ("op", Str o.Batch.o_op);
      ("file", Str o.Batch.o_file);
      ("exit", int o.Batch.o_exit);
      ( "error",
        match o.Batch.o_error with Some m -> Str m | None -> Null );
      ("payload", o.Batch.o_payload);
    ]

(* the grammar spool: content-addressed sources shipped by a submitter
   over the grammar_put handshake, one file per digest under a per-serve
   temp directory, so fabric jobs naming a grammar this host never saw
   can resolve their tenant locally *)
type spool = {
  sp_lock : Mutex.t;
  sp_dir : string;
  sp_table : (string, string) Hashtbl.t;  (* digest -> spooled path *)
}

type state = {
  pool : Pool.t;
  sessions : Session.cache;
  metrics : Lg_support.Metrics.t;
  tracer : Lg_support.Trace.t;  (* run-wide; requests absorb into it *)
  events : Lg_support.Eventlog.t;  (* the flight recorder switch *)
  postmortem_dir : string option;
  postmortem_keep : int option;  (* retention cap: keep the newest N *)
  pm_counter : int Atomic.t;  (* unique dump filenames *)
  tenants_file : string option;  (* ledger snapshot path, if persisted *)
  spool : spool;  (* directory created on the first grammar_put *)
  incremental : Batch.incremental option;
  chaos : Chaos.t option;
  deadline : float option;  (* default budget for job/update ops *)
  started : float;
  stop : bool Atomic.t;
  draining : bool Atomic.t;
}

(* The [update] op answers in the editor-facing shape: the update job's
   outputs and tree size, the session digest and the evaluation mode it
   recorded. A failed update answers like any failed job. *)
let mode_json = function
  | Lg_incremental.Incr.Fresh { fired } ->
      Obj [ ("kind", Str "fresh"); ("fired", int fired) ]
  | Lg_incremental.Incr.Incremental { reused; fresh; fired; waves; changed } ->
      Obj
        [
          ("kind", Str "incremental");
          ("reused_nodes", int reused);
          ("fresh_nodes", int fresh);
          ("fired", int fired);
          ("waves", int waves);
          ("changed", int changed);
        ]
  | Lg_incremental.Incr.Fallback { reason; churn } ->
      Obj [ ("kind", Str "fallback"); ("reason", Str reason); ("churn", Num churn) ]

let update_response (o : Batch.outcome) =
  match o.Batch.o_update with
  | None -> outcome_response o
  | Some (session, mode) ->
      let payload name =
        Option.value (member name o.Batch.o_payload) ~default:Null
      in
      Obj
        [
          ("ok", Bool true);
          ("session", Str session);
          ("doc", Str o.Batch.o_file);
          ("outputs", payload "outputs");
          ("tree_size", payload "tree_size");
          ("incremental", mode_json mode);
        ]

let info_json (i : Session.info) =
  Obj
    [
      ("digest", Str i.Session.i_digest);
      ("label", Str i.Session.i_label);
      ("weight", Num i.Session.i_weight);
      ("build_seconds", Num i.Session.i_build_seconds);
      ("age_seconds", Num i.Session.i_age);
      ("idle_seconds", Num i.Session.i_idle);
      ("docs", int i.Session.i_docs);
    ]

let quarantined_json st =
  Arr
    (List.map
       (fun (digest, label, strikes) ->
         Obj
           [
             ("digest", Str digest);
             ("label", Str label);
             ("strikes", int strikes);
           ])
       (Session.quarantined st.sessions))

let safe_filename id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
      | _ -> '_')
    id

(* Retention: keep only the newest [keep] postmortem-*.json dumps in
   [dir] (newest by mtime, ties broken by name so pruning is
   deterministic); answers how many it deleted. Unlink races with an
   operator tidying the directory are benign. *)
let prune_postmortems ~dir ~keep ~metrics =
  let keep = max 0 keep in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      let dumps =
        Array.to_list names
        |> List.filter (fun name ->
               String.length name > 11
               && String.sub name 0 11 = "postmortem-"
               && Filename.check_suffix name ".json")
        |> List.filter_map (fun name ->
               let path = Filename.concat dir name in
               match Unix.stat path with
               | { Unix.st_mtime; _ } -> Some (st_mtime, name, path)
               | exception Unix.Unix_error _ -> None)
        |> List.sort (fun (ta, na, _) (tb, nb, _) ->
               (* newest first *)
               match compare tb ta with 0 -> compare nb na | c -> c)
      in
      let victims = List.filteri (fun i _ -> i >= keep) dumps in
      List.fold_left
        (fun pruned (_, _, path) ->
          match Sys.remove path with
          | () ->
              Lg_support.Metrics.incr metrics "server.postmortems_pruned";
              pruned + 1
          | exception Sys_error _ -> pruned)
        0 victims

(* The flight-recorder dump: when the supervision layer fails a job with
   a typed worker_crashed/deadline_exceeded (exit 51/50), the lifecycle
   events read off the request's own trace [rt] become a post-mortem
   artifact next to the typed diagnostic, written whole or not at all.
   Quarantine refusals (52) are admission control, not crashes — no
   dump. *)
let write_postmortem st ~rt ~job_id ~trace e =
  match (st.postmortem_dir, e) with
  | ( Some dir,
      Server_error.Error
        ((Server_error.Deadline_exceeded _ | Server_error.Worker_crashed _) as
         se) ) -> (
      let doc =
        Lg_support.Eventlog.postmortem_json rt ~job:job_id
          ~reason:(Server_error.class_name se)
          ~exit_code:(Server_error.exit_code se)
          ~detail:(Server_error.to_string se) ~trace
      in
      let path =
        Filename.concat dir
          (Printf.sprintf "postmortem-%s-%d.json" (safe_filename job_id)
             (Atomic.fetch_and_add st.pm_counter 1))
      in
      ignore (Ledger.write_json ~path doc);
      match st.postmortem_keep with
      | Some keep -> ignore (prune_postmortems ~dir ~keep ~metrics:st.metrics)
      | None -> ())
  | _ -> ()

(* echo the client-minted trace id on the response, closing the loop *)
let with_trace_id trace response =
  match response with
  | Obj members when trace <> "" -> Obj (members @ [ ("trace", Str trace) ])
  | response -> response

(* ---------- the grammar spool (fabric handshake) ---------- *)

(* store a verified grammar source under its content digest; idempotent
   (content-addressed: same digest = same bytes, the existing file is
   the answer). The spool directory is created on first use. *)
let spool_store st ~digest ~name ~source =
  let sp = st.spool in
  Mutex.lock sp.sp_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sp.sp_lock) @@ fun () ->
  match Hashtbl.find_opt sp.sp_table digest with
  | Some path -> Ok path
  | None -> (
      let dir = Filename.concat sp.sp_dir (safe_filename digest) in
      match
        (try Unix.mkdir sp.sp_dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path = Filename.concat dir name in
        let oc = open_out_bin path in
        output_string oc source;
        close_out oc;
        path
      with
      | path ->
          Hashtbl.replace sp.sp_table digest path;
          Ok path
      | exception Sys_error msg -> Error msg
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

(* Resolve a fabric job's grammar tenant against the spool: the job
   arrives naming the submitter's grammar path, which means nothing on
   this host — the ["session"] digest is the real key. A digest this
   host has not been shipped yet answers the typed ["grammar_miss"]
   refusal, which is the coordinator's cue to grammar_put and retry
   (the pull half of the handshake). The spooled file keeps the
   grammar's original basename, so session labels and tenant accounting
   read the same as a local run. *)
let spool_resolve st (job : Jobfile.job) session_member =
  let rewrite tenant =
    match job.Jobfile.j_op with
    | Jobfile.Translate _ -> { job with Jobfile.j_op = Jobfile.Translate tenant }
    | Jobfile.Update _ -> { job with Jobfile.j_op = Jobfile.Update tenant }
    | Jobfile.Check | Jobfile.Analyze -> job
  in
  match job.Jobfile.j_op with
  | Jobfile.Check | Jobfile.Analyze
  | Jobfile.Translate (Jobfile.Language _)
  | Jobfile.Update (Jobfile.Language _) ->
      Ok job
  | Jobfile.Translate (Jobfile.Grammar _) | Jobfile.Update (Jobfile.Grammar _)
    -> (
      match session_member with
      | Some (Str digest) -> (
          Mutex.lock st.spool.sp_lock;
          let spooled = Hashtbl.find_opt st.spool.sp_table digest in
          Mutex.unlock st.spool.sp_lock;
          match spooled with
          | Some path -> Ok (rewrite (Jobfile.Grammar path))
          | None ->
              Lg_support.Metrics.incr st.metrics "server.grammar_misses";
              Error (error_response "grammar_miss" [ ("digest", Str digest) ]))
      | _ ->
          Error
            (error_response
               "fabric_job with a \"grammar\" tenant needs a \"session\" digest"
               []))

(* Decode a pool-bound op into the job it runs as and its lane. A local
   ["job"] is interactive unless the client demotes itself to bulk; a
   ["fabric_job"] is bulk unless the coordinator flags it, its grammar
   tenant resolved through the spool; an ["update"] is an interactive
   update job named after its editor buffer. [Error] is the refusal. *)
let admit st op doc =
  let ( let* ) = Result.bind in
  let refuse msg = Error (error_response msg []) in
  let str name = match member name doc with Some (Str s) -> Some s | _ -> None in
  let job_member () =
    match member "job" doc with
    | None -> refuse "missing \"job\" member"
    | Some jdoc ->
        Result.map_error
          (fun msg -> error_response msg [])
          (Jobfile.job_of_json ~index:0 jdoc)
  in
  match op with
  | "job" ->
      let* job = job_member () in
      let lane = if str "lane" = Some "bulk" then Pool.Bulk else Pool.Interactive in
      Ok (lane, job)
  | "fabric_job" ->
      let* lane =
        match member "lane" doc with
        | Some (Str "interactive") -> Ok Pool.Interactive
        | Some (Str "bulk") | None -> Ok Pool.Bulk
        | Some _ -> refuse "\"lane\" must be \"interactive\" or \"bulk\""
      in
      let* job = job_member () in
      let* job = spool_resolve st job (member "session" doc) in
      Ok (lane, job)
  | _ (* "update" *) ->
      let* tenant =
        match (str "language", str "grammar") with
        | Some _, Some _ ->
            refuse "\"language\" and \"grammar\" are mutually exclusive"
        | Some lang, None -> Ok (Jobfile.Language lang)
        | None, Some path -> Ok (Jobfile.Grammar path)
        | None, None -> refuse "op \"update\" needs a \"language\" or a \"grammar\""
      in
      let* source =
        match str "source" with
        | Some source -> Ok source
        | None -> refuse "op \"update\" needs a \"source\""
      in
      let doc_id =
        match (str "doc", tenant) with
        | Some d, _ -> d
        | None, (Jobfile.Language name | Jobfile.Grammar name) -> "<" ^ name ^ ">"
      in
      Ok
        ( Pool.Interactive,
          Jobfile.make ~id:("update:" ^ doc_id) ~file:doc_id ~doc:doc_id ~source
            ~op:(Jobfile.Update tenant) () )

(* The one pipeline every pool-bound op runs through: admission, the
   lifecycle spans, tenant accounting, supervision-failure handling and
   the postmortem hook. Answers the job's outcome, or [Error] with the
   saturation refusal when the queue is full. *)
let run_job_op st ~rt ~trace ~lane (job : Jobfile.job) =
  let deadline =
    match job.Jobfile.j_deadline with
    | Some _ as d -> d
    | None -> st.deadline
  in
  let label = job.Jobfile.j_id in
  (* the args ride from the open, so a job that expires in the queue
     still says what it was *)
  Lg_support.Trace.begin_span rt ~cat:"queue" "queue.wait";
  Lg_support.Trace.add_args rt
    [
      ("op", Lg_support.Trace.Str (Jobfile.op_name job.Jobfile.j_op));
      ("file", Lg_support.Trace.Str job.Jobfile.j_file);
      ("lane", Lg_support.Trace.Str (Pool.lane_name lane));
    ];
  let submitted = Unix.gettimeofday () in
  (* charge exactly once: the thunk's success path and the supervision
     path can both reach for the ledger (a job that finishes just as
     its watchdog fires) *)
  let charged = Atomic.make false in
  let charge ~ok ~exit_code ~queue_wait ~service =
    if not (Atomic.exchange charged true) then
      match Batch.culprit job with
      | Some (digest, tenant_label) ->
          Session.charge st.sessions ~digest ~label:tenant_label ~ok
            ~exit_code ~queue_wait ~service
      | None -> ()
  in
  match
    Pool.submit ~label ~lane ?deadline st.pool (fun () ->
        let dequeued = Unix.gettimeofday () in
        Lg_support.Trace.end_span rt ();
        (* the request tracer becomes ambient for the job so session
           hit/build and evaluator pass spans land on this request's
           story *)
        let prev = Lg_support.Trace.ambient () in
        Lg_support.Trace.install rt;
        Fun.protect
          ~finally:(fun () -> Lg_support.Trace.install prev)
          (fun () ->
            Lg_support.Trace.begin_span rt ~cat:"serve" "service";
            Fun.protect
              ~finally:(fun () -> Lg_support.Trace.end_span rt ())
              (fun () ->
                Batch.quarantine_gate ~sessions:st.sessions job;
                (match st.chaos with
                | Some _ ->
                    Lg_support.Trace.span rt ~cat:"chaos" "chaos.gate"
                      (fun () -> Batch.chaos_gate ?chaos:st.chaos job)
                | None -> ());
                let outcome =
                  Lg_support.Trace.span rt ~cat:"serve" "run" (fun () ->
                      Batch.run_job ~sessions:st.sessions
                        ?incremental:st.incremental job)
                in
                let finished = Unix.gettimeofday () in
                charge ~ok:outcome.Batch.o_ok
                  ~exit_code:outcome.Batch.o_exit
                  ~queue_wait:(dequeued -. submitted)
                  ~service:(finished -. dequeued);
                outcome)))
  with
  | Error { Pool.rj_depth; rj_capacity } ->
      Lg_support.Trace.end_span rt ();
      Error
        (error_response "saturated"
           [ ("queue_depth", int rj_depth); ("capacity", int rj_capacity) ])
  | Ok handle -> (
      match Pool.await handle with
      | Ok outcome -> Ok outcome
      | Error e ->
          let outcome =
            Batch.failure_outcome ~metrics:st.metrics ~sessions:st.sessions
              job e
          in
          charge ~ok:false ~exit_code:outcome.Batch.o_exit ~queue_wait:0.0
            ~service:0.0;
          write_postmortem st ~rt ~job_id:label ~trace e;
          Ok outcome)

let handle_request st ~rt ~trace doc =
  match member "op" doc with
  | Some (Str "ping") ->
      Obj
        [
          ("ok", Bool true);
          ("server", Str "linguist");
          ("protocol", int protocol_version);
          ("workers", int (Pool.workers st.pool));
        ]
  | Some (Str "metrics") -> (
      match member "format" doc with
      | Some (Str "prometheus") ->
          Obj
            [
              ("ok", Bool true);
              ( "prometheus",
                Str
                  (Format.asprintf "%a" Lg_support.Metrics.pp_prometheus
                     st.metrics) );
            ]
      | Some (Str "json") | None ->
          Obj
            [ ("ok", Bool true); ("metrics", Lg_support.Metrics.to_json st.metrics) ]
      | Some _ -> error_response "unknown metrics format" [])
  | Some (Str "shutdown") ->
      Atomic.set st.stop true;
      Obj [ ("ok", Bool true); ("stopping", Bool true) ]
  | Some (Str "health") ->
      if Atomic.get st.draining then
        error_response "draining" [ ("status", Str "draining") ]
      else
        Obj
          [
            ("ok", Bool true);
            ("status", Str "serving");
            ("workers", int (Pool.workers st.pool));
            ("workers_live", int (Pool.live_workers st.pool));
            ("workers_parked", int (Pool.parked_workers st.pool));
            ("worker_restarts", int (Pool.restart_count st.pool));
            ("queue_depth", int (Pool.queue_depth st.pool));
            ("queue_peak", int (Pool.queue_peak st.pool));
            ("queue_capacity", int (Pool.capacity st.pool));
            ("sessions", int (Session.length st.sessions));
            ("quarantined", quarantined_json st);
            ("uptime_seconds", Num (Unix.gettimeofday () -. st.started));
          ]
  | Some (Str "tenants") ->
      Obj
        [
          ("ok", Bool true);
          ( "tenants",
            Arr
              (List.map
                 (fun (digest, t, quarantined) ->
                   Obj
                     (Ledger.row_members digest t
                     @ [
                         ( "cache",
                           Obj
                             [
                               ("hits", int t.Session.t_hits);
                               ("misses", int t.Session.t_misses);
                               ("evictions", int t.Session.t_evictions);
                             ] );
                         ("strikes", int t.Session.t_strikes);
                         ("quarantined", Bool quarantined);
                       ]))
                 (Session.tenants st.sessions)) );
        ]
  | Some (Str "drain") ->
      Atomic.set st.draining true;
      (* drain announces intent to stop: checkpoint the ledger now so
         accounting survives even an unclean exit after the drain *)
      let ledger_saved =
        match st.tenants_file with
        | None -> Null
        | Some path -> (
            match Ledger.save st.sessions ~path with
            | Ok () -> Bool true
            | Error _ -> Bool false)
      in
      Obj
        [
          ("ok", Bool true);
          ("draining", Bool true);
          ("queue_depth", int (Pool.queue_depth st.pool));
          ("ledger_saved", ledger_saved);
        ]
  | Some (Str (("job" | "fabric_job" | "update") as op)) -> (
      if Atomic.get st.draining then error_response "draining" []
      else
        match admit st op doc with
        | Error refusal -> with_trace_id trace refusal
        | Ok (lane, job) -> (
            match run_job_op st ~rt ~trace ~lane job with
            | Error saturated -> saturated
            | Ok outcome ->
                with_trace_id trace
                  (if op = "update" then update_response outcome
                   else outcome_response outcome)))
  | Some (Str "grammar_put") -> (
      let str name =
        match member name doc with Some (Str s) -> Some s | _ -> None
      in
      match (str "digest", str "source") with
      | None, _ -> error_response "op \"grammar_put\" needs a \"digest\"" []
      | _, None -> error_response "op \"grammar_put\" needs a \"source\"" []
      | Some digest, Some source ->
          (* content-addressed verification: the digest is recomputed
             over the received bytes with the session key derivation, so
             a corrupted or mislabeled shipment can never poison the
             spool under another grammar's identity *)
          let actual = Session.digest ~kind:"translator" ~source in
          if not (String.equal actual digest) then
            error_response "grammar digest mismatch"
              [ ("expected", Str digest); ("got", Str actual) ]
          else begin
            let name =
              match str "name" with
              | Some n when safe_filename n <> "" -> safe_filename n
              | _ -> "grammar.ag"
            in
            match spool_store st ~digest ~name ~source with
            | Ok path ->
                Lg_support.Metrics.incr st.metrics "server.grammar_puts";
                Obj
                  [
                    ("ok", Bool true);
                    ("digest", Str digest);
                    ("spooled", Str path);
                  ]
            | Error msg -> error_response msg []
          end)
  | Some (Str "grammar_have") -> (
      match member "digest" doc with
      | Some (Str digest) ->
          Mutex.lock st.spool.sp_lock;
          let have = Hashtbl.mem st.spool.sp_table digest in
          Mutex.unlock st.spool.sp_lock;
          Obj [ ("ok", Bool true); ("digest", Str digest); ("have", Bool have) ]
      | _ -> error_response "op \"grammar_have\" needs a \"digest\"" [])
  | Some (Str "evict") -> (
      let digest =
        match (member "digest" doc, member "language" doc) with
        | Some (Str d), _ -> Some d
        | None, Some (Str lang) ->
            Some (Session.digest ~kind:"language" ~source:lang)
        | _, _ -> None
      in
      match digest with
      | None -> error_response "op \"evict\" needs a \"digest\" or \"language\"" []
      | Some d ->
          Obj
            [
              ("ok", Bool true);
              ("evicted", Bool (Session.evict st.sessions ~digest:d));
            ])
  | Some (Str "clear") ->
      Obj [ ("ok", Bool true); ("cleared", int (Session.clear st.sessions)) ]
  | Some (Str "sessions") ->
      Obj
        [
          ("ok", Bool true);
          ("sessions", Arr (List.map info_json (Session.entries_info st.sessions)));
        ]
  | Some (Str other) -> error_response (Printf.sprintf "unknown op %S" other) []
  | _ -> error_response "missing \"op\" member" []

let connection_loop st fd =
  (* a request keeps its own trace only when someone reads it: the
     run-wide tracer, or the flight recorder on a failed job *)
  let observed =
    Lg_support.Trace.enabled st.tracer
    || (Lg_support.Eventlog.enabled st.events && st.postmortem_dir <> None)
  in
  let rec go () =
    match read_frame fd with
    | None -> ()
    | Some payload ->
        let doc =
          match parse payload with
          | doc -> Ok doc
          | exception Failure msg -> Error msg
        in
        let op, trace =
          match doc with
          | Ok doc ->
              ( (match member "op" doc with Some (Str op) -> op | _ -> "?"),
                match member "trace" doc with Some (Str t) -> t | _ -> "" )
          | Error _ -> ("?", "")
        in
        (* one private tracer per request; the client-minted trace id
           rides on the request span, and the finished story is absorbed
           into the run-wide tracer for --trace-out *)
        let rt =
          if observed then Lg_support.Trace.create () else Lg_support.Trace.null
        in
        Lg_support.Trace.begin_span rt ~cat:"request" ("request:" ^ op);
        if trace <> "" then
          Lg_support.Trace.add_args rt
            [ ("trace", Lg_support.Trace.Str trace) ];
        let finish_rt () =
          (* a wedged/deadlined job can leave queue.wait or service open *)
          while Lg_support.Trace.open_depth rt > 0 do
            Lg_support.Trace.end_span rt ()
          done;
          Lg_support.Trace.absorb st.tracer rt
        in
        let continue =
          Fun.protect ~finally:finish_rt (fun () ->
              let response =
                match doc with
                | Error msg -> error_response ("bad request: " ^ msg) []
                | Ok doc -> handle_request st ~rt ~trace doc
              in
              (* a [drop] chaos roll closes the connection instead of
                 answering — the work is already done; the retrying
                 client's recovery path is what's under test *)
              let dropped =
                match st.chaos with
                | Some c when Chaos.drop_response c -> true
                | _ -> false
              in
              if dropped then false
              else begin
                Lg_support.Trace.span rt ~cat:"request" "response.write"
                  (fun () -> write_frame fd (to_string response));
                not (Atomic.get st.stop)
              end)
        in
        if continue then go ()
  in
  (* EPIPE/ECONNRESET from a client that hung up mid-response (SIGPIPE
     is ignored process-wide by [serve]) ends this connection only *)
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try go () with Failure _ | Unix.Unix_error _ -> ())

(* every in-process serve gets its own spool directory even when two
   run in one pid (tests, the fabric bench) *)
let spool_counter = Atomic.make 0

let fresh_spool_dir () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "linguist-spool-%d-%d" (Unix.getpid ())
       (Atomic.fetch_and_add spool_counter 1))

(* the spool is two levels deep at most: digest dirs holding one source
   file each *)
let remove_spool_dir dir =
  let rm_tree path =
    match Sys.readdir path with
    | entries ->
        Array.iter
          (fun name ->
            try Sys.remove (Filename.concat path name) with Sys_error _ -> ())
          entries;
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | exception Sys_error _ -> ()
  in
  match Sys.readdir dir with
  | entries ->
      Array.iter (fun name -> rm_tree (Filename.concat dir name)) entries;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

let serve ?queue_capacity ?session_capacity ?session_ttl ?quarantine_after
    ?metrics ?tracer ?events ?postmortem_dir ?postmortem_keep ?incremental
    ?chaos ?deadline ?slo_window ?tenants_file ?tcp ?on_tcp_port ~workers
    ~socket () =
  (* a client that vanishes mid-response must cost us an EPIPE, not the
     process; per-connection handling turns it into a closed connection *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let metrics =
    match metrics with Some m -> m | None -> Lg_support.Metrics.create ()
  in
  let tracer =
    match tracer with Some t -> t | None -> Lg_support.Trace.null
  in
  let events =
    match events with Some e -> e | None -> Lg_support.Eventlog.create ()
  in
  (match postmortem_dir with
  | Some dir -> ( try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
  | None -> ());
  let queue_capacity =
    match queue_capacity with Some c -> c | None -> 4 * max 1 workers
  in
  let sessions =
    Session.create_cache ?capacity:session_capacity ?ttl:session_ttl
      ?quarantine_after ~metrics ()
  in
  (* reload persisted accounting before the listeners open, so a restart
     under traffic double-counts nothing; a missing snapshot is a first
     boot, a malformed one is a configuration error worth failing on *)
  (match tenants_file with
  | Some path when Sys.file_exists path -> (
      match Ledger.load sessions ~path with
      | Ok _ -> ()
      | Error msg -> failwith ("tenant ledger: " ^ msg))
  | Some _ | None -> ());
  let st =
    {
      pool = Pool.create ~metrics ?slo_window ~workers ~queue_capacity ();
      sessions;
      metrics;
      tracer;
      events;
      postmortem_dir;
      postmortem_keep;
      pm_counter = Atomic.make 0;
      tenants_file;
      spool =
        {
          sp_lock = Mutex.create ();
          sp_dir = fresh_spool_dir ();
          sp_table = Hashtbl.create 8;
        };
      incremental;
      chaos;
      deadline;
      started = Unix.gettimeofday ();
      stop = Atomic.make false;
      draining = Atomic.make false;
    }
  in
  let unix_listener, _ = Transport.listen (Transport.Unix_path socket) in
  let tcp_listener =
    match tcp with
    | None -> None
    | Some spec -> (
        match Transport.parse_tcp spec with
        | Error msg ->
            (try Unix.close unix_listener with Unix.Unix_error _ -> ());
            (try Unix.unlink socket with Unix.Unix_error _ -> ());
            invalid_arg ("--listen " ^ msg)
        | Ok endpoint ->
            let fd, bound = Transport.listen endpoint in
            (match bound with
            | Transport.Tcp (_, port) -> (
                match on_tcp_port with Some f -> f port | None -> ())
            | Transport.Unix_path _ -> ());
            Some fd)
  in
  let listeners =
    unix_listener :: (match tcp_listener with Some fd -> [ fd ] | None -> [])
  in
  let threads = ref [] in
  let finish () =
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      listeners;
    List.iter Thread.join !threads;
    Pool.drain st.pool;
    (match st.tenants_file with
    | Some path -> ignore (Ledger.save st.sessions ~path)
    | None -> ());
    remove_spool_dir st.spool.sp_dir;
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:finish @@ fun () ->
  while not (Atomic.get st.stop) do
    (* wake up periodically so a shutdown requested on some connection
       thread stops the accept loop too; both listeners feed the same
       connection loop — the protocol is transport-agnostic *)
    match Unix.select listeners [] [] 0.2 with
    | ready, _, _ ->
        List.iter
          (fun listener ->
            let fd, _ = Unix.accept listener in
            Transport.nodelay fd;
            threads := Thread.create (connection_loop st) fd :: !threads)
          ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let one_request_endpoint ~endpoint doc =
  let fd = Transport.connect endpoint in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_frame fd (to_string doc);
      match read_frame fd with
      | Some payload -> parse payload
      | None -> failwith "server closed the connection without a response")

(* what the retrying client treats as transient: the server not (yet)
   there, a connection torn down mid-exchange, or a dropped response.
   The network errors matter for TCP endpoints: a worker host mid-boot
   or briefly unreachable looks exactly like a socket not yet bound. *)
let retryable_exn = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOENT
        | Unix.ENOTCONN | Unix.EHOSTUNREACH | Unix.ENETUNREACH
        | Unix.ETIMEDOUT | Unix.EADDRNOTAVAIL ),
        _,
        _ ) ->
      true
  | Failure msg ->
      String.equal msg "server closed the connection without a response"
      || String.equal msg "connection closed mid-frame"
  | _ -> false

(* the queue-full backpressure signal — the one *response* worth
   retrying; every other error response is a final answer *)
let saturated_response doc =
  match (member "ok" doc, member "error" doc) with
  | Some (Bool false), Some (Str "saturated") -> true
  | _ -> false

let default_attempts = 5

(* client-side trace ids: 16 hex chars, unique enough to follow one
   request through a merged server trace *)
let trace_counter = Atomic.make 0

let mint_trace_id () =
  let d =
    Digest.string
      (Printf.sprintf "trace:%d:%.9f:%d" (Unix.getpid ())
         (Unix.gettimeofday ())
         (Atomic.fetch_and_add trace_counter 1))
  in
  String.sub (Digest.to_hex d) 0 16

let request_endpoint ?(attempts = default_attempts) ?(backoff = 0.05) ?budget
    ?(jitter_seed = 0) ~endpoint doc =
  (* every client request carries a trace id; retries reuse it, so the
     server trace shows one logical request across attempts *)
  let doc =
    match doc with
    | Obj members when not (List.mem_assoc "trace" members) ->
        Obj (members @ [ ("trace", Str (mint_trace_id ())) ])
    | doc -> doc
  in
  let attempts = max 1 attempts in
  let t0 = Unix.gettimeofday () in
  let over_budget () =
    match budget with
    | Some b -> Unix.gettimeofday () -. t0 >= b
    | None -> false
  in
  (* exponential backoff with deterministic jitter in [0.5, 1.5) of the
     nominal step, clipped to whatever is left of the budget *)
  let pause attempt =
    let d = Digest.string (Printf.sprintf "retry:%d:%d" jitter_seed attempt) in
    let u =
      float_of_int ((Char.code d.[0] * 256) + Char.code d.[1]) /. 65536.0
    in
    let nominal = backoff *. (2.0 ** float_of_int (attempt - 1)) in
    let s = nominal *. (0.5 +. u) in
    let s =
      match budget with
      | Some b -> Float.min s (Float.max 0.0 (b -. (Unix.gettimeofday () -. t0)))
      | None -> s
    in
    if s > 0.0 then Unix.sleepf s
  in
  let rec go attempt =
    let retriable = attempt < attempts && not (over_budget ()) in
    match one_request_endpoint ~endpoint doc with
    | response when saturated_response response && retriable ->
        pause attempt;
        go (attempt + 1)
    | response -> response
    | exception e when retryable_exn e && retriable ->
        pause attempt;
        go (attempt + 1)
  in
  go 1

let request ?attempts ?backoff ?budget ?jitter_seed ~socket doc =
  request_endpoint ?attempts ?backoff ?budget ?jitter_seed
    ~endpoint:(Transport.Unix_path socket) doc
