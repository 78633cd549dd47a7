(** The serving layer's flight recorder: one failed request's lifecycle
    events, read off that request's own {!Trace}.

    Where {!Metrics} aggregates and {!Trace} times, the event log
    {e narrates}: one event per state transition of one job —
    [submitted], [dequeued], [started], [session.hit]/[session.build],
    [pass], then [failed] — each stamped with the job id and the
    request's trace id. Nothing is recorded twice: every event but the
    last is derived from a span the request already traced.

    - [submitted] and [dequeued] are the open and the close of the
      [queue.wait] span (category ["queue"]); [submitted] carries that
      span's args ([op], [file], [lane]), [dequeued] its duration as
      [queue_wait_seconds].
    - [started] is the open of the [run] span (category ["serve"]).
    - [session.hit]/[session.build] (category ["session"]) and [pass]
      (category ["pass"]) are completed spans, carrying [name] and
      [seconds].

    Spans still open count too, so a job that dies mid-run (a deadline
    fires while its worker is wedged) still tells how far it got.

    Its purpose is the post-mortem path: when the supervision layer
    fails a job with a typed [worker_crashed] or [deadline_exceeded]
    (exit 51/50), the serve front-end dumps the request's events next to
    the typed diagnostic as a flight-recorder artifact
    ({!postmortem_json}; the format is documented in
    [docs/OBSERVABILITY.md]). *)

type t
(** Whether a server keeps each request's trace for the flight
    recorder. *)

val null : t
(** No recorder: requests keep a trace only for a run-wide tracer, and
    without one a dump holds just its [failed] event. *)

val create : unit -> t
val enabled : t -> bool

val postmortem_json :
  Trace.t ->
  job:string ->
  reason:string ->
  exit_code:int ->
  detail:string ->
  trace:string ->
  Json_out.t
(** The flight-recorder dump for one failed job: a
    [{"linguist_postmortem":1}]-tagged object carrying the typed
    diagnostic ([reason]/[exit_code]/[detail]), the request's [trace]
    id, and the events derived from the request tracer, closed by one
    [failed] event ([exit], [error] = [detail]) stamped now. Events
    are [{"seq":_,"time":_,"job":_,"trace":_,"kind":_, ...fields}] with
    [seq] numbering them from 0 and [time] absolute on the tracer's
    clock. *)
