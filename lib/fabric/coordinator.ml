(* The fabric coordinator: one process that owns a jobfile and a list
   of worker endpoints, and distributes the jobs so the merged results
   are byte-identical to running the jobfile locally.

   Placement is pull-based. All jobs wait on one shared queue with two
   lanes (interactive [update] jobs ahead of bulk). Each worker has a
   dispatch thread that takes its next job by {!next}: one whose
   grammar (session digest) that worker already holds, else one whose
   grammar no open worker holds, else the lane head. Affinity is a
   preference, not a partition: a grammar is built once on each worker
   that takes one of its jobs, and an idle worker always finds work.
   One request goes out per job over a fresh connection, with the
   grammar-shipping handshake inline: a [grammar_miss] refusal is
   answered with a [grammar_put] of the content-addressed source, then
   the job is retried on the same worker. Inputs are inlined into the
   jobs themselves ([j_source]), so worker hosts need no copy of the
   corpus.

   Failure semantics: a transport failure (connect retries exhausted)
   marks the worker lost and puts its in-flight job back on the shared
   queue; a job that comes back with a typed serving failure (exit
   50–52: deadline, worker crash, quarantine) is put back marked to
   avoid the worker that failed it, up to [redispatch_limit] times,
   before the failure is accepted as the job's outcome. A dispatch
   thread stops only when the queue is empty and no job is in flight,
   so re-queued work always finds a surviving worker. Every job ends
   with exactly one outcome; only if the whole fleet is gone does a job
   get the synthesized [worker_lost] failure. *)

open Lg_support.Json_out
module Transport = Lg_server.Transport
module Server = Lg_server.Server
module Jobfile = Lg_server.Jobfile
module Batch = Lg_server.Batch

type worker_report = {
  w_endpoint : string;
  w_assigned : int;
  w_completed : int;
  w_grammars : int;
  w_grammar_puts : int;
  w_session_builds : int;  (** scraped from the worker's metrics; -1 if lost *)
  w_lost : bool;
}

type report = {
  summary : Batch.summary;
  workers : worker_report list;
  redispatched : int;
}

(* ---------- the pull order ---------- *)

type ticket = {
  t_digest : string option;
  t_interactive : bool;
  t_avoid : int option;
}

(* Lane first, then cost: 0 — nothing new to build on [worker]; 1 — a
   build no other open worker has done (or none needed); 2 — a build
   that duplicates another worker's. Earliest wins within a rank. A job
   is never handed back to the worker that failed it while another
   worker is open. *)
let next ~worker ~others ~holds queue =
  let rank t =
    match t.t_digest with
    | Some d when holds worker d -> 0
    | Some d when List.exists (fun o -> holds o d) others -> 2
    | _ -> 1
  in
  let eligible lane t =
    t.t_interactive = lane && (others = [] || t.t_avoid <> Some worker)
  in
  let rec scan lane best = function
    | [] -> Option.map snd best
    | ((t, _) as e) :: rest when eligible lane t -> (
        match (rank t, best) with
        | 0, _ -> Some e
        | r, Some (b, _) when b <= r -> scan lane best rest
        | r, _ -> scan lane (Some (r, e)) rest)
    | _ :: rest -> scan lane best rest
  in
  match
    match scan true None queue with
    | Some _ as e -> e
    | None -> scan false None queue
  with
  | Some e -> Some (e, List.filter (fun e' -> e' != e) queue)
  | None -> None

(* ---------- preparation ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type prepared = {
  p_index : int;
  p_job : Jobfile.job;  (* input inlined *)
  p_grammar : (string * string * string) option;
      (* (digest, basename, source) — the handshake's shipment *)
  p_digest : string option;  (* the session the job builds, if any *)
  p_interactive : bool;
  mutable p_redispatched : int;
}

(* inline the input and, for grammar tenants, read the source once per
   distinct path so the digest and the eventual grammar_put agree *)
let prepare jobs =
  let grammars = Hashtbl.create 8 in
  let grammar_of path =
    match Hashtbl.find_opt grammars path with
    | Some g -> g
    | None ->
        let g =
          match read_file path with
          | source ->
              Some
                ( Lg_server.Session.digest ~kind:"translator" ~source,
                  Filename.basename path,
                  source )
          | exception Sys_error _ -> None
        in
        Hashtbl.add grammars path g;
        g
  in
  List.mapi
    (fun i (job : Jobfile.job) ->
      let job =
        match job.Jobfile.j_source with
        | Some _ -> job
        | None -> (
            match read_file job.Jobfile.j_file with
            | source -> { job with Jobfile.j_source = Some source }
            | exception Sys_error _ ->
                (* unreadable here means unreadable anywhere: ship the
                   job as-is and let the worker fail it exactly as a
                   local run would *)
                job)
      in
      let p_grammar =
        match job.Jobfile.j_op with
        | Jobfile.Translate (Jobfile.Grammar path)
        | Jobfile.Update (Jobfile.Grammar path) ->
            grammar_of path
        | _ -> None
      in
      let p_digest =
        match p_grammar with
        | Some (digest, _, _) -> Some digest
        | None -> Option.map fst (Batch.culprit job)
      in
      let p_interactive =
        match job.Jobfile.j_op with Jobfile.Update _ -> true | _ -> false
      in
      {
        p_index = i;
        p_job = job;
        p_grammar;
        p_digest;
        p_interactive;
        p_redispatched = 0;
      })
    jobs

(* ---------- the wire ---------- *)

let outcome_of_response doc : Batch.outcome option =
  match (member "id" doc, member "op" doc) with
  | Some (Str o_id), Some (Str o_op) ->
      Some
        {
          Batch.o_id;
          o_op;
          o_file =
            (match member "file" doc with Some (Str f) -> f | _ -> "");
          o_ok = (match member "ok" doc with Some (Bool b) -> b | _ -> false);
          o_exit =
            (match member "exit" doc with
            | Some (Num n) -> int_of_float n
            | _ -> 1);
          o_error =
            (match member "error" doc with Some (Str m) -> Some m | _ -> None);
          o_payload =
            (match member "payload" doc with Some p -> p | None -> Null);
          o_seconds = 0.0;
          o_update = None;
        }
  | _ -> None

let error_of_response doc =
  match (member "ok" doc, member "error" doc) with
  | Some (Bool false), Some (Str msg) -> Some msg
  | _ -> None

(* the coordinator's own failure class when the whole fleet is gone:
   worker_crashed's exit code, so downstream triage treats it like any
   other serving loss *)
let worker_lost_outcome (p : prepared) =
  {
    Batch.o_id = p.p_job.Jobfile.j_id;
    o_op = Jobfile.op_name p.p_job.Jobfile.j_op;
    o_file = p.p_job.Jobfile.j_file;
    o_ok = false;
    o_exit = 51;
    o_error = Some "worker lost: no surviving worker to re-dispatch to";
    o_payload = Null;
    o_seconds = 0.0;
    o_update = None;
  }

(* ---------- dispatch state ---------- *)

type worker = {
  k_index : int;
  k_endpoint : Transport.endpoint;
  k_held : (string, unit) Hashtbl.t;  (* digests of the jobs it took *)
  mutable k_alive : bool;
  mutable k_closed : bool;  (* thread done; it takes no more work *)
  mutable k_assigned : int;
  mutable k_completed : int;
  mutable k_puts : int;
}

type st = {
  lock : Mutex.t;
  changed : Condition.t;  (* the queue, the in-flight count or the fleet *)
  fleet : worker array;
  mutable queue : (ticket * prepared) list;  (* both lanes, FIFO *)
  mutable in_flight : int;
  results : Batch.outcome option array;
  mutable redispatched : int;
  attempts : int;
  redispatch_limit : int;
  log : string -> unit;
}

let locked st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

let ticket ?avoid p =
  ({ t_digest = p.p_digest; t_interactive = p.p_interactive; t_avoid = avoid }, p)

(* under the lock: the workers other than [w] still taking work *)
let others st w =
  Array.fold_right
    (fun o acc ->
      if o.k_index <> w.k_index && o.k_alive && not o.k_closed then
        o.k_index :: acc
      else acc)
    st.fleet []

(* under the lock: [w] gives [p] back; it counts as re-dispatched when
   another worker is open to take it *)
let requeue st w ?avoid p =
  st.queue <- st.queue @ [ ticket ?avoid p ];
  if others st w <> [] then st.redispatched <- st.redispatched + 1;
  Condition.broadcast st.changed

let job_request (p : prepared) =
  let lane = if p.p_interactive then "interactive" else "bulk" in
  match p.p_grammar with
  | Some (digest, _, _) ->
      Obj
        [
          ("op", Str "fabric_job");
          ("lane", Str lane);
          ("session", Str digest);
          ("job", Jobfile.job_to_json p.p_job);
        ]
  | None ->
      (* no grammar to resolve — the plain job op, demoted to the
         requested lane *)
      Obj
        [
          ("op", Str "job");
          ("lane", Str lane);
          ("job", Jobfile.job_to_json p.p_job);
        ]

exception Worker_down of exn

let request st w doc =
  match
    Server.request_endpoint ~attempts:st.attempts
      ~jitter_seed:(w.k_index + 1) ~endpoint:w.k_endpoint doc
  with
  | response -> response
  | exception e -> raise (Worker_down e)

(* one job against one worker, grammar handshake inline; answers the
   outcome, raises [Worker_down] when the transport gives out *)
let dispatch st w (p : prepared) =
  let response = ref (request st w (job_request p)) in
  (match (error_of_response !response, p.p_grammar) with
  | Some "grammar_miss", Some (digest, name, source) ->
      let put =
        request st w
          (Obj
             [
               ("op", Str "grammar_put");
               ("digest", Str digest);
               ("name", Str name);
               ("source", Str source);
             ])
      in
      (match member "ok" put with
      | Some (Bool true) ->
          locked st (fun () -> w.k_puts <- w.k_puts + 1);
          response := request st w (job_request p)
      | _ -> ())
  | _ -> ());
  match outcome_of_response !response with
  | Some outcome -> outcome
  | None ->
      (* a refusal without a job outcome (draining, a handshake that
         would not converge): a final failure, not a lost job *)
      {
        (worker_lost_outcome p) with
        Batch.o_exit = 1;
        o_error =
          Some
            (match error_of_response !response with
            | Some msg -> msg
            | None -> "unintelligible worker response");
      }

let typed_serving_failure (o : Batch.outcome) =
  (not o.Batch.o_ok) && o.Batch.o_exit >= 50 && o.Batch.o_exit <= 52

(* under the lock: the job [w] runs next, waiting while the queue holds
   nothing for it but work is still in flight; [None] once the queue is
   dry and nothing can come back to it *)
let rec take st w =
  let holds i d = Hashtbl.mem st.fleet.(i).k_held d in
  match next ~worker:w.k_index ~others:(others st w) ~holds st.queue with
  | Some ((_, p), rest) ->
      st.queue <- rest;
      st.in_flight <- st.in_flight + 1;
      w.k_assigned <- w.k_assigned + 1;
      Option.iter (fun d -> Hashtbl.replace w.k_held d ()) p.p_digest;
      Some p
  | None when st.queue = [] && st.in_flight = 0 ->
      w.k_closed <- true;
      Condition.broadcast st.changed;
      None
  | None ->
      Condition.wait st.changed st.lock;
      take st w

let worker_loop st w =
  let rec go () =
    match locked st (fun () -> take st w) with
    | None -> ()
    | Some p -> (
        match dispatch st w p with
        | outcome ->
            locked st (fun () ->
                st.in_flight <- st.in_flight - 1;
                (* a typed serving failure gets another chance on a
                   different worker — the 50–52 codes are exactly the
                   "this host, this moment" classes *)
                if
                  typed_serving_failure outcome
                  && p.p_redispatched < st.redispatch_limit
                  && others st w <> []
                then begin
                  p.p_redispatched <- p.p_redispatched + 1;
                  requeue st w ~avoid:w.k_index p
                end
                else begin
                  st.results.(p.p_index) <- Some outcome;
                  w.k_completed <- w.k_completed + 1;
                  Condition.broadcast st.changed
                end);
            go ()
        | exception Worker_down e ->
            locked st (fun () ->
                w.k_alive <- false;
                w.k_closed <- true;
                st.in_flight <- st.in_flight - 1;
                requeue st w p);
            st.log
              (Printf.sprintf "fabric: worker %s lost (%s), its job re-queued"
                 (Transport.to_string w.k_endpoint)
                 (Printexc.to_string e)))
  in
  go ()

(* ---------- the end-of-run scrape ---------- *)

let scrape_builds st w =
  if not w.k_alive then -1
  else
    match request st w (Obj [ ("op", Str "metrics") ]) with
    | exception Worker_down _ -> -1
    | response -> (
        match member "metrics" response with
        | Some metrics -> (
            match member "server.session_builds" metrics with
            | Some (Num n) -> int_of_float n
            | _ -> 0)
        | None -> -1)

(* ---------- the run ---------- *)

let run ?(attempts = 3) ?(redispatch_limit = 1) ?(log = ignore) ~workers jobs =
  if workers = [] then invalid_arg "Coordinator.run: no workers";
  let started = Unix.gettimeofday () in
  let prepared = prepare jobs in
  let prepared_arr = Array.of_list prepared in
  let st =
    {
      lock = Mutex.create ();
      changed = Condition.create ();
      fleet =
        Array.of_list
          (List.mapi
             (fun i endpoint ->
               {
                 k_index = i;
                 k_endpoint = endpoint;
                 k_held = Hashtbl.create 8;
                 k_alive = true;
                 k_closed = false;
                 k_assigned = 0;
                 k_completed = 0;
                 k_puts = 0;
               })
             workers);
      queue = List.map (fun p -> ticket p) prepared;
      in_flight = 0;
      results = Array.make (List.length jobs) None;
      redispatched = 0;
      attempts;
      redispatch_limit;
      log;
    }
  in
  log
    (Printf.sprintf "fabric: %d job(s), %d worker(s)" (List.length jobs)
       (List.length workers));
  let threads =
    Array.to_list
      (Array.map (fun w -> Thread.create (worker_loop st) w) st.fleet)
  in
  List.iter Thread.join threads;
  let outcomes =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Some o -> o
           | None ->
               (* threads stop early only when their worker is lost, so
                  an unanswered job means the whole fleet is gone *)
               worker_lost_outcome prepared_arr.(i))
         st.results)
  in
  let n_ok = List.length (List.filter (fun o -> o.Batch.o_ok) outcomes) in
  let reports =
    Array.to_list
      (Array.map
         (fun w ->
           let r =
             {
               w_endpoint = Transport.to_string w.k_endpoint;
               w_assigned = w.k_assigned;
               w_completed = w.k_completed;
               w_grammars = Hashtbl.length w.k_held;
               w_grammar_puts = w.k_puts;
               w_session_builds = scrape_builds st w;
               w_lost = not w.k_alive;
             }
           in
           log
             (Printf.sprintf
                "fabric: worker %s jobs=%d grammars=%d grammar_puts=%d \
                 session_builds=%d%s"
                r.w_endpoint r.w_completed r.w_grammars r.w_grammar_puts
                r.w_session_builds
                (if r.w_lost then " lost" else ""));
           r)
         st.fleet)
  in
  {
    summary =
      {
        Batch.outcomes;
        n_ok;
        n_failed = List.length outcomes - n_ok;
        workers = List.length workers;
        wall_seconds = Unix.gettimeofday () -. started;
      };
    workers = reports;
    redispatched = st.redispatched;
  }
