(* One lock/condition pair guards the queue and the worker slot table;
   workers sleep on [nonempty] and are woken by submits and by drain.
   Results travel through per-job cells with their own lock/condition
   and first-fill-wins semantics, so awaiting one job never contends
   with the queue — and the watchdog can fail a cell that the (possibly
   wedged) worker will try to fill much later.

   Supervision model: each of the [n_workers] slots is owned by exactly
   one live domain, identified by the slot's epoch. A worker that dies
   under a job (an exception escaping the job harness: Crash,
   Out_of_memory) spawns its own successor into its slot before the
   job's failure is published; the watchdog abandons a worker stuck
   past its job's deadline by bumping the slot epoch and spawning a
   replacement — the abandoned domain notices the epoch change when
   its job finally returns and exits quietly. Replaced domains are parked on a zombie
   list and joined by [drain]. *)

type reject = { rj_depth : int; rj_capacity : int }

type lane = Interactive | Bulk

let lane_name = function Interactive -> "interactive" | Bulk -> "bulk"

exception Crash of string

type 'a handle = {
  h_lock : Mutex.t;
  h_done : Condition.t;
  mutable h_result : ('a, exn) result option;
}

(* first fill wins: the watchdog and the worker may race to complete a
   job, and exactly one side's result must stand *)
let fill cell result =
  Mutex.lock cell.h_lock;
  let filled = cell.h_result = None in
  if filled then begin
    cell.h_result <- Some result;
    Condition.broadcast cell.h_done
  end;
  Mutex.unlock cell.h_lock;
  filled

type inflight = {
  if_label : string;
  if_submitted : float;
  if_deadline : float option;  (* absolute wall-clock expiry *)
  if_fail : exn -> bool;  (* fail the job's cell; true if we won *)
}

type slot = {
  mutable s_epoch : int;
  mutable s_domain : unit Domain.t option;
  mutable s_inflight : inflight option;
}

type packaged = {
  p_inflight : inflight;
  p_run : retire:(unit -> unit) -> unit;
      (* fills the cell; raises only to kill the worker, and calls
         [retire] first, before it publishes that failure *)
}

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  (* two priority lanes behind one capacity: interactive work (serve
     [job]/[update] traffic) always dequeues before bulk (batch) work,
     so a deep batch backlog cannot starve an editor round-trip *)
  q_interactive : packaged Queue.t;
  q_bulk : packaged Queue.t;
  capacity : int;
  n_workers : int;
  mutable closing : bool;
  slots : slot array;
  mutable zombies : unit Domain.t list;  (* replaced domains, joined by drain *)
  watchdog_interval : float;
  watchdog_stop : bool Atomic.t;
  mutable watchdog : Thread.t option;
  metrics : Lg_support.Metrics.t;
  slo_window : float;  (* frame width of the *_recent_seconds histograms *)
  (* mirrored into metrics, but kept here too so health probes can
     answer on a pool whose registry is disabled *)
  mutable peak : int;
  mutable restarts : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let total_depth t = Queue.length t.q_interactive + Queue.length t.q_bulk
let queues_empty t = Queue.is_empty t.q_interactive && Queue.is_empty t.q_bulk

(* interactive preempts bulk at dequeue: a worker coming free always
   drains the interactive lane first *)
let pop_next t =
  if not (Queue.is_empty t.q_interactive) then Queue.pop t.q_interactive
  else Queue.pop t.q_bulk

let publish_depth t =
  let di = Queue.length t.q_interactive and db = Queue.length t.q_bulk in
  let depth = di + db in
  if depth > t.peak then t.peak <- depth;
  Lg_support.Metrics.set_int t.metrics "server.queue_depth" depth;
  Lg_support.Metrics.set_int t.metrics "server.queue_depth_interactive" di;
  Lg_support.Metrics.set_int t.metrics "server.queue_depth_bulk" db;
  Lg_support.Metrics.set_max t.metrics "server.queue_peak" (float_of_int depth)

let deadline_error inf =
  let deadline =
    match inf.if_deadline with
    | Some d -> d -. inf.if_submitted
    | None -> 0.0
  in
  Server_error.Error
    (Server_error.Deadline_exceeded
       {
         job = inf.if_label;
         deadline;
         elapsed = Unix.gettimeofday () -. inf.if_submitted;
       })

let expired inf now =
  match inf.if_deadline with Some d -> now > d | None -> false

(* under the lock: replace [slot]'s domain with a fresh worker; the old
   domain (dying or abandoned) is parked for drain to join *)
let rec replace_worker t slot =
  slot.s_epoch <- slot.s_epoch + 1;
  slot.s_inflight <- None;
  (match slot.s_domain with
  | Some d -> t.zombies <- d :: t.zombies
  | None -> ());
  let epoch = slot.s_epoch in
  slot.s_domain <- Some (Domain.spawn (fun () -> worker t slot epoch));
  t.restarts <- t.restarts + 1;
  Lg_support.Metrics.incr t.metrics "server.worker_restarts"

and worker t slot epoch =
  (* the pool's registry becomes this domain's ambient, so store layers
     and the evaluator publish into it exactly as they do single-threaded *)
  Lg_support.Metrics.install t.metrics;
  (* minor collections stop every domain in OCaml 5, and a domain
     blocked in [Condition.wait] or [accept] joins each one through its
     backup thread — which, on a host with every core busy, must first
     wait for the scheduler. With the 256k-word default the domains
     spend their time in those handshakes: two allocating domains
     beside a blocked one took 2.2 s at 256k words against 0.72 s at 1M
     and 0.42 s at 4M. Each step up costs committed memory per worker
     domain (8 MB at 1M words, 32 MB at 4M), and 1M is where the
     end-to-end sweep in docs/SERVER.md stops paying for more. An
     explicit OCAMLRUNPARAM s=... above this floor is respected. *)
  let g = Gc.get () in
  let floor_words = 1024 * 1024 in
  if g.Gc.minor_heap_size < floor_words then
    Gc.set { g with Gc.minor_heap_size = floor_words };
  worker_loop t slot epoch

and worker_loop t slot epoch =
  Mutex.lock t.lock;
  if slot.s_epoch <> epoch then Mutex.unlock t.lock (* abandoned: die quietly *)
  else begin
    while queues_empty t && not t.closing do
      Condition.wait t.nonempty t.lock
    done;
    if queues_empty t then Mutex.unlock t.lock (* draining, queue dry *)
    else begin
      let p = pop_next t in
      publish_depth t;
      (* a job that expired while queued is failed without running it:
         its client already gave up, so running it only burns a worker *)
      if expired p.p_inflight (Unix.gettimeofday ()) then begin
        Mutex.unlock t.lock;
        if p.p_inflight.if_fail (deadline_error p.p_inflight) then
          Lg_support.Metrics.incr t.metrics "server.deadline_exceeded";
        worker_loop t slot epoch
      end
      else begin
        slot.s_inflight <- Some p.p_inflight;
        Mutex.unlock t.lock;
        (* a job about to kill this worker hands the slot to a successor
           first, so an awaiter of its failure also sees the restart *)
        let retire () =
          locked t (fun () ->
              if slot.s_epoch = epoch && not (t.closing && queues_empty t) then
                replace_worker t slot)
        in
        let death = (try p.p_run ~retire; None with e -> Some e) in
        Mutex.lock t.lock;
        let abandoned = slot.s_epoch <> epoch in
        if not abandoned then slot.s_inflight <- None;
        match (death, abandoned) with
        | None, false ->
            Mutex.unlock t.lock;
            worker_loop t slot epoch
        | _, true ->
            (* the watchdog or [retire] already replaced us; after the
               watchdog, our result (if any) lost the fill race. Either
               way, just let this domain end *)
            Mutex.unlock t.lock
        | Some _, false ->
            (* the worker domain is dying: spawn our own successor unless
               the pool is closing with nothing left to do *)
            if not (t.closing && queues_empty t) then replace_worker t slot;
            Mutex.unlock t.lock
      end
    end
  end

let watchdog_loop t () =
  while not (Atomic.get t.watchdog_stop) do
    Thread.delay t.watchdog_interval;
    let now = Unix.gettimeofday () in
    locked t (fun () ->
        Array.iter
          (fun slot ->
            match slot.s_inflight with
            | Some inf when expired inf now ->
                if inf.if_fail (deadline_error inf) then begin
                  Lg_support.Metrics.incr t.metrics "server.deadline_exceeded";
                  replace_worker t slot
                end
                else
                  (* the job completed between our check and the fill:
                     leave the worker alone *)
                  slot.s_inflight <- None
            | _ -> ())
          t.slots)
  done

let create ?(metrics = Lg_support.Metrics.null) ?(watchdog_interval = 0.01)
    ?(slo_window = 60.0) ~workers ~queue_capacity () =
  let workers = max 1 workers and capacity = max 1 queue_capacity in
  let t =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      q_interactive = Queue.create ();
      q_bulk = Queue.create ();
      capacity;
      n_workers = workers;
      closing = false;
      slots =
        Array.init workers (fun _ ->
            { s_epoch = 0; s_domain = None; s_inflight = None });
      zombies = [];
      watchdog_interval = Float.max 0.001 watchdog_interval;
      watchdog_stop = Atomic.make false;
      watchdog = None;
      metrics;
      slo_window = Float.max 0.001 slo_window;
      peak = 0;
      restarts = 0;
    }
  in
  Array.iter
    (fun slot -> slot.s_domain <- Some (Domain.spawn (fun () -> worker t slot 0)))
    t.slots;
  t.watchdog <- Some (Thread.create (watchdog_loop t) ());
  t

let workers t = t.n_workers
let capacity t = t.capacity

let submit ?(label = "") ?(lane = Interactive) ?deadline t f =
  let cell =
    { h_lock = Mutex.create (); h_done = Condition.create (); h_result = None }
  in
  let submitted_at = Unix.gettimeofday () in
  let inflight =
    {
      if_label = label;
      if_submitted = submitted_at;
      if_deadline = Option.map (fun d -> submitted_at +. Float.max 0.0 d) deadline;
      if_fail = (fun e -> fill cell (Error e));
    }
  in
  let run ~retire =
    (* the SLO split: queue wait ends when a worker picks the job up,
       service is everything from there to completion — both on the
       latency ladder, where job_seconds (their sum) keeps its coarse
       historical buckets *)
    let started_at = Unix.gettimeofday () in
    let wait = started_at -. submitted_at in
    Lg_support.Metrics.observe t.metrics
      ~buckets:Lg_support.Metrics.latency_buckets "server.queue_wait_seconds"
      wait;
    (* the per-lane wait split the coordinator's placement bench reads:
       interactive waits must stay short even under a bulk backlog *)
    Lg_support.Metrics.observe t.metrics
      ~buckets:Lg_support.Metrics.latency_buckets
      (Printf.sprintf "server.queue_wait_%s_seconds" (lane_name lane))
      wait;
    Lg_support.Metrics.observe_window t.metrics
      ~buckets:Lg_support.Metrics.latency_buckets ~window:t.slo_window
      "server.queue_wait_recent_seconds" wait;
    let result =
      match f () with
      | v -> `Ok v
      | exception Crash msg ->
          `Died
            (Server_error.Error
               (Server_error.Worker_crashed { job = label; detail = msg }))
      | exception Out_of_memory ->
          (* the domain's heap state is suspect: fail the job typed and
             recycle the worker, exactly as for an explicit crash *)
          `Died
            (Server_error.Error
               (Server_error.Worker_crashed
                  { job = label; detail = "Out_of_memory" }))
      | exception e -> `Err e
    in
    let finished_at = Unix.gettimeofday () in
    Lg_support.Metrics.observe t.metrics
      ~buckets:Lg_support.Metrics.latency_buckets "server.service_seconds"
      (finished_at -. started_at);
    Lg_support.Metrics.observe_window t.metrics
      ~buckets:Lg_support.Metrics.latency_buckets ~window:t.slo_window
      "server.service_recent_seconds" (finished_at -. started_at);
    Lg_support.Metrics.observe t.metrics "server.job_seconds"
      (finished_at -. submitted_at);
    match result with
    | `Ok v -> ignore (fill cell (Ok v))
    | `Err e -> ignore (fill cell (Error e))
    | `Died e ->
        (* count and replace before publishing the result: an awaiter
           reading the registry right after [await] must see the crash
           and the restart *)
        Lg_support.Metrics.incr t.metrics "server.worker_crashes";
        retire ();
        ignore (fill cell (Error e));
        raise (Crash "worker lost")
  in
  locked t @@ fun () ->
  if t.closing then invalid_arg "Pool.submit: pool is draining";
  let depth = total_depth t in
  if depth >= t.capacity then begin
    Lg_support.Metrics.incr t.metrics "server.rejections";
    Error { rj_depth = depth; rj_capacity = t.capacity }
  end
  else begin
    let q = match lane with Interactive -> t.q_interactive | Bulk -> t.q_bulk in
    Queue.push { p_inflight = inflight; p_run = run } q;
    Lg_support.Metrics.incr t.metrics "server.jobs";
    publish_depth t;
    Condition.signal t.nonempty;
    Ok cell
  end

let await cell =
  Mutex.lock cell.h_lock;
  while cell.h_result = None do
    Condition.wait cell.h_done cell.h_lock
  done;
  let r = Option.get cell.h_result in
  Mutex.unlock cell.h_lock;
  r

let queue_depth t = locked t (fun () -> total_depth t)
let queue_peak t = locked t (fun () -> t.peak)
let restart_count t = locked t (fun () -> t.restarts)

let live_workers t =
  locked t (fun () ->
      Array.fold_left
        (fun n slot -> if slot.s_domain = None then n else n + 1)
        0 t.slots)

let parked_workers t = locked t (fun () -> List.length t.zombies)

let drain t =
  locked t (fun () ->
      t.closing <- true;
      Condition.broadcast t.nonempty);
  (* workers may still respawn successors while the backlog drains (a
     crash with jobs left must not strand them), so join in rounds until
     a sweep finds no live domain *)
  let rec join_all () =
    let ds =
      locked t (fun () ->
          let slot_domains =
            Array.to_list t.slots
            |> List.filter_map (fun slot ->
                   let d = slot.s_domain in
                   slot.s_domain <- None;
                   d)
          in
          let ds = slot_domains @ t.zombies in
          t.zombies <- [];
          ds)
    in
    match ds with
    | [] -> ()
    | ds ->
        List.iter Domain.join ds;
        join_all ()
  in
  join_all ();
  Atomic.set t.watchdog_stop true;
  (match t.watchdog with
  | Some th ->
      t.watchdog <- None;
      Thread.join th
  | None -> ());
  publish_depth t
