(** The distributed evaluation coordinator: [linguist coordinate].

    Owns a jobfile and a list of worker endpoints (serve processes,
    usually reached over their [--listen] TCP port) and distributes the
    jobs so the merged result document is {e byte-identical} to
    {!Lg_server.Batch.run_sequential} over the same jobfile
    ([Batch.to_json ~timings:false]) — the fabric adds machines, never
    changes answers.

    How (see [docs/FABRIC.md] for the full story):
    - {b Placement} is pull-based: every job waits on one shared queue,
      and each worker's dispatch thread takes its next job by {!next} —
      a grammar (session digest) its worker already holds, else one no
      open worker holds, else the lane head. A grammar compiles at most
      once per worker, and an idle worker always finds work.
    - {b Inputs are inlined} ([j_source]) — workers need no corpus
      files. Grammars ship on demand: a worker answering
      [grammar_miss] is sent a [grammar_put] of the content-addressed
      source, then the job retries on that worker.
    - {b Lanes}: [update] jobs dispatch on the interactive lane and
      drain first; everything else is bulk, so a worker's own
      interactive clients keep preempting fabric bulk work at its
      queue.
    - {b Failures}: transport loss marks the worker dead and puts its
      in-flight job back on the shared queue; a typed serving failure
      (exit 50–52) goes back marked to avoid the worker that failed it,
      up to [redispatch_limit] times, before being accepted as the
      outcome. Dispatch threads wait while work is in flight, so every
      job ends with exactly one outcome; only with the whole fleet gone
      does a job fail with the synthesized [worker lost] outcome
      (exit 51). *)

type worker_report = {
  w_endpoint : string;
  w_assigned : int;  (** jobs it took (incl. re-dispatched ones) *)
  w_completed : int;  (** outcomes it produced *)
  w_grammars : int;  (** distinct session digests of the jobs it took *)
  w_grammar_puts : int;  (** grammars shipped to it by the handshake *)
  w_session_builds : int;
      (** the worker's [server.session_builds] counter after the run —
          the builds-once-per-grammar evidence, equal to [w_grammars]
          on a healthy run; [-1] if unreachable *)
  w_lost : bool;
}

type report = {
  summary : Lg_server.Batch.summary;
      (** outcomes in jobfile order — [Batch.to_json ~timings:false]
          of this is the byte-identity artifact *)
  workers : worker_report list;
  redispatched : int;  (** jobs moved between workers (loss + typed) *)
}

(** {1 The pull order} *)

type ticket = {
  t_digest : string option;  (** the session the job builds, if any *)
  t_interactive : bool;  (** interactive lane ([update] jobs) *)
  t_avoid : int option;  (** the worker that last failed it typed *)
}

val next :
  worker:int ->
  others:int list ->
  holds:(int -> string -> bool) ->
  (ticket * 'a) list ->
  ((ticket * 'a) * (ticket * 'a) list) option
(** [next ~worker ~others ~holds queue] is the job [worker] takes from
    the shared [queue] (arrival order), with the queue left behind.
    [others] are the other workers still taking work; [holds w d] says
    whether worker [w] already took a job on digest [d]. The
    interactive lane is searched first; within a lane the earliest job
    wins among, in order: a digest [worker] holds, a digest (or none)
    that no worker in [others] holds, any job. A job whose [t_avoid] is
    [worker] is skipped while [others] is non-empty. [None] when no job
    is eligible. Pure. *)

(** {1 Running a fleet} *)

val run :
  ?attempts:int ->
  ?redispatch_limit:int ->
  ?log:(string -> unit) ->
  workers:Lg_server.Transport.endpoint list ->
  Lg_server.Jobfile.job list ->
  report
(** Distribute [jobs] over [workers]. [attempts] (default 3) is the
    per-request transport retry budget — exhausting it is what declares
    a worker lost. [redispatch_limit] (default 1) bounds how often one
    job chases typed 50–52 failures across workers. [log] (default
    silent) receives one-line progress/stat messages — the CLI points
    it at stderr, keeping stdout's result document clean. Raises
    [Invalid_argument] on an empty worker list. *)
