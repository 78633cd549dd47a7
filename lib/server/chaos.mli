(** Deterministic server-layer chaos injection.

    The serving sibling of the APT layer's fault injection
    ({!Lg_apt.Apt_store.fault_spec}): a [SEED:RATE:KINDS] spec drives
    reproducible failures {e above} the storage stack — in the worker
    pool and on the wire — so the supervision, deadline, quarantine and
    retry machinery is testable and benchable.

    Kinds:
    - [delay] — the job sleeps {!delay_seconds} before evaluating
      (latency injection);
    - [crash] — the job raises {!Pool.Crash}: the worker domain dies and
      is respawned, the job fails with a typed
      {!Server_error.Worker_crashed};
    - [wedge] — the job sleeps {!wedge_seconds} first, simulating a
      wedged worker: with a deadline set, the pool watchdog fails the
      job ({!Server_error.Deadline_exceeded}) and recycles the worker;
    - [drop] — the server closes the connection instead of writing a
      response (the retrying client's recovery path).

    {b Determinism}: job-level rolls are a pure function of
    [(seed, job id, job file)] — independent of worker count, queue
    order or wall clock — so the set of injected jobs is identical
    across runs and the surviving jobs can be demanded byte-identical
    to a fault-free sequential run. Connection drops are rolled per
    response serial: deterministic in count, not in which request they
    hit (liveness, not bytes, is the asserted property).

    An optional {e poison} substring marks an always-crashing tenant:
    any job whose id or file contains it crashes its worker every time
    — the session-quarantine scenario. *)

type kind = Delay | Crash | Wedge | Drop

type spec = { c_seed : int; c_rate : float; c_kinds : kind list }

val parse_spec : string -> (spec, string) result
(** ["SEED:RATE:KINDS"] with [KINDS] a comma list of
    [delay|crash|wedge|drop] or [all], e.g. ["9:0.05:crash,drop"]. *)

val render_spec : spec -> string
(** Inverse of {!parse_spec}. *)

type t

val create :
  ?poison:string ->
  ?delay:float ->
  ?wedge:float ->
  ?metrics:Lg_support.Metrics.t ->
  spec ->
  t
(** [delay] (default 0.02 s) and [wedge] (default 0.5 s) are the
    injected sleep durations; [metrics] receives [server.chaos.*]
    injection counters; [poison] marks always-crashing jobs by
    id/file substring. *)

val spec : t -> spec
val delay_seconds : t -> float
val wedge_seconds : t -> float

type job_action = Delay_job | Crash_job | Wedge_job

val on_job : t -> id:string -> file:string -> job_action option
(** The injection decision for one job — deterministic in
    [(seed, id, file)]. Poisoned jobs always get [Crash_job]. *)

val drop_response : t -> bool
(** Roll whether to drop the next response's connection ([Drop] must be
    among the spec's kinds). *)
