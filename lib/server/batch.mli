(** Batch execution: a {!Jobfile} job list through the worker {!Pool}.

    Each job runs in complete isolation: its intermediate APT files live
    in a private temporary directory (removed afterwards even on
    failure), its store configuration, fault injection and evaluator
    budgets come from its own jobfile entry, and any failure — grammar
    diagnostics, a typed {!Lg_apt.Apt_error} from a faulted store, a
    blown depth/node budget — is captured in that job's result record
    with the same stable exit code the CLI would have used (40–44 for
    the typed classes), leaving every sibling untouched.

    Telemetry composes with the single-run story: each job records into
    a private tracer that the parent tracer absorbs on completion
    ({!Lg_support.Trace.absorb}), and the pool publishes [server.*]
    metrics into the shared registry. The {e payload} of a result is
    deterministic — timings are kept apart so a pooled run is
    byte-identical to a sequential run over the same jobs
    ({!to_json} with [~timings:false], the default).

    The fault-tolerance layer composes here too: a [deadline] (per-job
    field, or the run default) arms the pool watchdog; a job that
    crashes its worker ({!Pool.Crash}, [Out_of_memory]) or blows its
    deadline fails with a typed {!Server_error} exit (50–52) and
    {!Session.strike}s its tenant's session toward quarantine; an
    optional {!Chaos} injector exercises all of it deterministically.
    Because chaos rolls are keyed by job id/file, the {e surviving}
    jobs of a chaotic run stay byte-identical to a fault-free run. *)

type outcome = {
  o_id : string;
  o_op : string;
  o_file : string;
  o_ok : bool;
  o_exit : int;
      (** 0 success; 1 diagnostics/logic failure; 40–44 the typed APT
          integrity / resource classes ({!Lg_apt.Apt_error.exit_code});
          50–52 the typed serving classes
          ({!Server_error.exit_code}) *)
  o_error : string option;
  o_payload : Lg_support.Json_out.t;  (** deterministic result document *)
  o_seconds : float;  (** job wall time (not part of the payload) *)
  o_update : (string * Lg_incremental.Incr.mode) option;
      (** a successful [update]'s session digest and evaluation mode.
          Which of two same-doc updates finds cached state depends on
          pool timing, so only the serve [update] op answers it;
          {!to_json} never emits it. [None] for every other outcome. *)
}

type summary = {
  outcomes : outcome list;  (** in jobfile order *)
  n_ok : int;
  n_failed : int;
  workers : int;  (** 0 = sequential in the calling domain *)
  wall_seconds : float;
}

(** How [update] jobs evaluate (see [docs/INCREMENTAL.md]): the churn
    fraction above which an update falls back to full evaluation. *)
type incremental = Lg_incremental.Incr.config

val default_incremental : incremental
(** threshold 0.5. *)

val run_job :
  sessions:Session.cache -> ?incremental:incremental -> Jobfile.job -> outcome
(** One job, synchronously, in the calling domain — the unit of work the
    pool executes. Never raises: every failure lands in the outcome.
    Without [incremental], [update] jobs still answer correctly but
    evaluate from scratch and keep no per-document state. *)

val default_workers : unit -> int
(** [min 4 (recommended_domain_count - 1)], at least 1. *)

val culprit : Jobfile.job -> (string * string) option
(** [(digest, label)] of the session a job would be served from — the
    digest its tenant caches under, the one {!failure_outcome} strikes
    and the serve front-end's per-tenant accounting charges. [None] for
    [check] jobs (compiled fresh, no session) and for a grammar tenant
    whose file cannot be read. *)

val quarantine_gate : sessions:Session.cache -> Jobfile.job -> unit
(** Admission control: raises the typed
    {!Server_error.Session_quarantined} when the job's tenant session is
    quarantined — call it first in the thunk, ahead of {!chaos_gate},
    so a refusal never burns a worker. *)

val chaos_gate : ?chaos:Chaos.t -> Jobfile.job -> unit
(** Run [chaos]'s injection decision for the job — call it {e inside}
    the pool thunk, before the job proper. [Delay_job]/[Wedge_job]
    sleep; [Crash_job] raises {!Pool.Crash}. No-op without [chaos]. *)

val failure_outcome :
  ?metrics:Lg_support.Metrics.t ->
  sessions:Session.cache ->
  Jobfile.job ->
  exn ->
  outcome
(** The outcome for a job the {e supervision layer} failed — the
    [Error e] arm of {!Pool.await}, and the serve front-end's
    equivalent. A typed {!Server_error.Error} keeps its exit code and
    rendered message; anything else is exit 1. [Worker_crashed] and
    [Deadline_exceeded] additionally {!Session.strike} the job's tenant
    session (crossing the quarantine threshold bumps
    [server.quarantined] on [metrics]). *)

val run :
  ?workers:int ->
  ?sessions:Session.cache ->
  ?metrics:Lg_support.Metrics.t ->
  ?tracer:Lg_support.Trace.t ->
  ?incremental:incremental ->
  ?chaos:Chaos.t ->
  ?deadline:float ->
  Jobfile.job list ->
  summary
(** Run the list on a fresh pool of [workers] domains (default
    {!default_workers}; [0] runs sequentially with no pool). [metrics]
    and [tracer] default to the calling domain's ambient registry and
    tracer. The pool is drained before returning; outcomes keep jobfile
    order.

    [deadline] (seconds) is the default wall-clock budget for jobs that
    don't set their own [j_deadline]; enforced by the pool watchdog, so
    sequential runs ([workers = 0]) don't enforce it. [chaos] injects
    deterministic job-level faults ({!Chaos.on_job}) ahead of each
    job. *)

val run_sequential :
  ?sessions:Session.cache ->
  ?metrics:Lg_support.Metrics.t ->
  ?tracer:Lg_support.Trace.t ->
  ?incremental:incremental ->
  Jobfile.job list ->
  summary
(** [run ~workers:0] — the baseline the benchmark harness compares pooled
    throughput against. Publishes the same [server.*] series a pooled
    run would (jobs, queue-wait/service/job histograms — queue wait
    identically 0), so the two are comparable on the metrics axis
    too. *)

val to_json : ?timings:bool -> summary -> Lg_support.Json_out.t
(** The results document. With [timings:false] (the default) the
    document depends only on the jobs and their outcomes — byte-identical
    across worker counts; [timings:true] adds wall/per-job seconds and
    throughput. *)
