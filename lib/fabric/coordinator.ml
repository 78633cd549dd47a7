(* The fabric coordinator: one process that owns a jobfile and a list
   of worker endpoints, and distributes the jobs so the merged results
   are byte-identical to running the jobfile locally.

   Placement is {!Shard}'s affinity plan — jobs naming the same grammar
   land together so each grammar compiles once per worker. Each worker
   gets a dispatch thread working through that worker's two lanes
   (interactive [update] jobs ahead of bulk), one request per job over a
   fresh connection, with the grammar-shipping handshake inline: a
   [grammar_miss] refusal is answered with a [grammar_put] of the
   content-addressed source, then the job is retried on the same
   worker. Inputs are inlined into the jobs themselves ([j_source]), so
   worker hosts need no copy of the corpus.

   Failure semantics: a transport failure (connect retries exhausted)
   marks the worker lost and re-queues everything it still owed onto
   the least-loaded surviving worker; a job that comes back with a
   typed serving failure (exit 50–52: deadline, worker crash,
   quarantine) is re-dispatched to a different worker up to
   [redispatch_limit] times before the failure is accepted as the
   job's outcome. Either way every job ends with exactly one outcome —
   a final serial sweep catches work stranded by late deaths, and only
   if the whole fleet is gone does a job get the synthesized
   [worker_lost] failure. *)

open Lg_support.Json_out
module Transport = Lg_server.Transport
module Server = Lg_server.Server
module Jobfile = Lg_server.Jobfile
module Batch = Lg_server.Batch

type worker_report = {
  w_endpoint : string;
  w_assigned : int;
  w_completed : int;
  w_grammar_puts : int;
  w_session_builds : int;  (** scraped from the worker's metrics; -1 if lost *)
  w_lost : bool;
}

type report = {
  summary : Batch.summary;
  workers : worker_report list;
  groups : int;
  spilled : int;
  redispatched : int;
}

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
      let p_interactive =
        match job.Jobfile.j_op with Jobfile.Update _ -> true | _ -> false
      in
      { p_index = i; p_job = job; p_grammar; p_interactive; p_redispatched = 0 })
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

(* ---------- per-worker dispatch state ---------- *)

type worker = {
  k_index : int;
  k_endpoint : Transport.endpoint;
  mutable k_interactive : prepared list;  (* both lanes: FIFO, reversed *)
  mutable k_bulk : prepared list;
  mutable k_alive : bool;
  mutable k_closed : bool;  (* thread done; no new work may land here *)
  mutable k_assigned : int;
  mutable k_completed : int;
  mutable k_puts : int;
}

type st = {
  lock : Mutex.t;
  fleet : worker array;
  results : Batch.outcome option array;
  mutable redispatched : int;
  attempts : int;
  redispatch_limit : int;
  log : string -> unit;
}

let locked st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

(* under the lock *)
let remaining w = List.length w.k_interactive + List.length w.k_bulk

let push w p =
  w.k_assigned <- w.k_assigned + 1;
  if p.p_interactive then w.k_interactive <- w.k_interactive @ [ p ]
  else w.k_bulk <- w.k_bulk @ [ p ]

(* under the lock: the surviving worker with the least work left, for
   re-queues — [None] once the whole fleet is dead or closed *)
let best_target st ~not_worker =
  Array.fold_left
    (fun best w ->
      if w.k_alive && (not w.k_closed) && w.k_index <> not_worker then
        match best with
        | Some b when remaining b <= remaining w -> best
        | _ -> Some w
      else best)
    None st.fleet

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

let record st (p : prepared) outcome = st.results.(p.p_index) <- Some outcome

(* a worker died owing work: everything still queued (plus the job in
   flight) moves to the least-loaded survivor; with no survivor it
   stays unrecorded for the final sweep to settle *)
let fail_worker st w (p : prepared) e =
  let stranded =
    locked st (fun () ->
        w.k_alive <- false;
        w.k_closed <- true;
        let owed = (p :: w.k_interactive) @ w.k_bulk in
        w.k_interactive <- [];
        w.k_bulk <- [];
        List.filter
          (fun p ->
            match best_target st ~not_worker:w.k_index with
            | Some target ->
                push target p;
                st.redispatched <- st.redispatched + 1;
                false
            | None -> true)
          owed)
  in
  st.log
    (Printf.sprintf "fabric: worker %s lost (%s), %d job(s) re-queued"
       (Transport.to_string w.k_endpoint)
       (Printexc.to_string e)
       (List.length stranded));
  ignore stranded

let worker_loop st w =
  let pop () =
    locked st (fun () ->
        match (w.k_interactive, w.k_bulk) with
        | p :: rest, _ ->
            w.k_interactive <- rest;
            Some p
        | [], p :: rest ->
            w.k_bulk <- rest;
            Some p
        | [], [] ->
            w.k_closed <- true;
            None)
  in
  let rec go () =
    match pop () with
    | None -> ()
    | Some p -> (
        match dispatch st w p with
        | outcome ->
            (* a typed serving failure gets another chance on a
               different worker — the 50–52 codes are exactly the
               "this host, this moment" classes *)
            let redispatch =
              typed_serving_failure outcome
              && p.p_redispatched < st.redispatch_limit
              && locked st (fun () ->
                     match best_target st ~not_worker:w.k_index with
                     | Some target ->
                         p.p_redispatched <- p.p_redispatched + 1;
                         push target p;
                         st.redispatched <- st.redispatched + 1;
                         true
                     | None -> false)
            in
            if not redispatch then begin
              record st p outcome;
              locked st (fun () -> w.k_completed <- w.k_completed + 1)
            end;
            go ()
        | exception Worker_down e -> fail_worker st w p e)
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
  let shard =
    Shard.plan ~workers:(List.length workers)
      ~affinity:(fun p -> Option.map fst (Batch.culprit p.p_job))
      prepared
  in
  let prepared_arr = Array.of_list prepared in
  let st =
    {
      lock = Mutex.create ();
      fleet =
        Array.of_list
          (List.mapi
             (fun i endpoint ->
               {
                 k_index = i;
                 k_endpoint = endpoint;
                 k_interactive = [];
                 k_bulk = [];
                 k_alive = true;
                 k_closed = false;
                 k_assigned = 0;
                 k_completed = 0;
                 k_puts = 0;
               })
             workers);
      results = Array.make (List.length jobs) None;
      redispatched = 0;
      attempts;
      redispatch_limit;
      log;
    }
  in
  Array.iteri
    (fun w indices ->
      List.iter (fun i -> push st.fleet.(w) prepared_arr.(i)) indices)
    shard.Shard.assignments;
  log
    (Printf.sprintf "fabric: %d job(s), %d group(s), %d spilled, %d worker(s)"
       (List.length jobs) shard.Shard.groups shard.Shard.spilled
       (List.length workers));
  let threads =
    Array.to_list
      (Array.map (fun w -> Thread.create (worker_loop st) w) st.fleet)
  in
  List.iter Thread.join threads;
  (* the sweep: anything stranded by a death after the survivors had
     already closed runs serially on whoever is still alive *)
  Array.iteri
    (fun i result ->
      if result = None then begin
        let p = prepared_arr.(i) in
        let rec try_fleet k =
          if k >= Array.length st.fleet then record st p (worker_lost_outcome p)
          else
            let w = st.fleet.(k) in
            if not w.k_alive then try_fleet (k + 1)
            else
              match dispatch st w p with
              | outcome ->
                  record st p outcome;
                  w.k_completed <- w.k_completed + 1;
                  (* a swept job is by construction running somewhere
                     other than the dead worker it was assigned to *)
                  st.redispatched <- st.redispatched + 1
              | exception Worker_down e ->
                  fail_worker st w p e;
                  try_fleet (k + 1)
        in
        try_fleet 0
      end)
    st.results;
  let outcomes =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Some o -> o
           | None -> worker_lost_outcome prepared_arr.(i))
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
               w_grammar_puts = w.k_puts;
               w_session_builds = scrape_builds st w;
               w_lost = not w.k_alive;
             }
           in
           log
             (Printf.sprintf
                "fabric: worker %s jobs=%d grammar_puts=%d session_builds=%d%s"
                r.w_endpoint r.w_completed r.w_grammar_puts r.w_session_builds
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
    groups = shard.Shard.groups;
    spilled = shard.Shard.spilled;
    redispatched = st.redispatched;
  }
