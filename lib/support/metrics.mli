(** A zero-dependency metrics registry: named counters, gauges and
    fixed-bucket histograms for the whole pipeline.

    Where {!Trace} answers "where did the time go", this registry
    answers "how much work was done": APT bytes and pages moved, record
    sizes, buffer-pool residency, retry counts, per-pass rule-evaluation
    totals, table sizes. The CLI snapshots it into every run manifest
    ([--report]) and the bench regression gate diffs those snapshots
    across commits — the paper's §IV/§V accounting claims, kept honest
    by CI.

    Mirrors {!Trace}'s design: a disabled registry ({!null}) reduces
    every operation to one field check, and an {e ambient} registry lets
    deep call sites (the evaluator, the store stack, the table builders)
    report without explicit threading. Metric names are dotted
    lower-case paths (["apt.bytes_read"], ["engine.pass_rules"]).

    Registries are safe to share across domains: every mutation and
    snapshot of an enabled registry runs under an internal mutex (the
    batch-evaluation worker pool publishes [server.*] metrics from every
    worker into one registry). The ambient registry is {e domain-local}
    — {!install} affects only the calling domain, so each pool worker
    can adopt the shared registry without clobbering its siblings.

    A metric's kind is fixed by its first use; re-using a name at a
    different kind raises [Invalid_argument] — that is a programming
    error, not an operational condition. *)

type t

val null : t
(** The disabled registry: every operation is a near-no-op. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A fresh enabled registry. [clock] (default [Unix.gettimeofday])
    drives {e windowed} histogram rotation only — tests inject a fake
    clock to step windows deterministically. *)

val enabled : t -> bool

(** {1 Recording} *)

val incr : t -> ?by:int -> string -> unit
(** Add [by] (default 1) to a counter. *)

val set : t -> string -> float -> unit
(** Set a gauge to its latest value. *)

val set_int : t -> string -> int -> unit

val set_max : t -> string -> float -> unit
(** Raise a gauge to [v] if [v] exceeds its current value (create it at
    [v] otherwise) — a high-water mark that is race-free under
    concurrent publication, unlike a read-modify-[set] at the call
    site. *)

val observe : t -> ?buckets:float list -> string -> float -> unit
(** Record one observation into a histogram. [buckets] (sorted upper
    bounds; default {!default_buckets}) is fixed by the histogram's
    first observation and ignored afterwards. Every histogram has an
    implicit [+Inf] overflow bucket, so bucket counts always sum to the
    observation count. *)

val observe_window : t -> ?buckets:float list -> window:float -> string -> float -> unit
(** Record one observation into a {e windowed} histogram: like
    {!observe}, but the counts cover only recent observations. The cell
    keeps two [window]-second frames (current and previous) and rotates
    them on the registry clock, so any snapshot reflects between one
    and two windows of history and everything older is forgotten — the
    "current latency" view that [linguist top] renders, where the
    process-lifetime SLO histograms never forget a cold start.
    [buckets] and [window] are fixed by the first observation. Exported
    ({!dump}/{!find}/{!to_json}/{!pp_prometheus}) as a plain
    {!Histogram} of the merged frames; a name is either windowed or
    plain, never both. *)

type tally
(** Integer observations on {!default_buckets}, counted outside any
    registry: a hot loop (one per APT record) tallies each item without
    a lock, a name lookup or an allocation, and publishes once. *)

val tally : unit -> tally
val tally_int : tally -> int -> unit

val publish_tally : t -> string -> tally -> unit
(** Merge into histogram [name] as if {!observe} had seen each value.
    @raise Invalid_argument if [name] has other buckets. *)

val default_buckets : float list
(** Powers of 4 from 1 to 4{^10} — a decade-spanning default for byte
    and count distributions. *)

val latency_buckets : float list
(** Sub-millisecond to a minute (0.5 ms … 60 s) — the bucket ladder for
    seconds-scale latency histograms ([server.queue_wait_seconds],
    [server.service_seconds]), dense where SLOs live. *)

(** {1 Reading} *)

type histogram = {
  h_buckets : float array;  (** upper bounds, ascending; no [+Inf] entry *)
  h_counts : int array;  (** length [Array.length h_buckets + 1]; last = overflow *)
  h_sum : float;
  h_count : int;
}

type value = Counter of int | Gauge of float | Histogram of histogram

val dump : t -> (string * value) list
(** Every metric, sorted by name. Histogram arrays are copies. *)

val percentile : histogram -> float -> float option
(** [percentile h q] estimates the [q]-quantile ([q] clamped to [0,1])
    from the fixed buckets: the bucket holding the target rank is found
    on the cumulative counts and the value interpolated linearly inside
    it (a lower bound of 0 is assumed for the first bucket). A rank
    landing in the [+Inf] overflow bucket answers the largest finite
    bucket bound — the histogram cannot resolve past it. [None] when the
    histogram is empty. *)

val find : t -> string -> value option
val reset : t -> unit

(** {1 The ambient registry}

    The CLI and the bench harness install one registry per run; deep
    call sites fall back to it. Defaults to {!null}: nothing is recorded
    unless installed. The binding is per-domain: a freshly spawned
    domain starts at {!null} and must {!install} its own (possibly
    shared) registry. *)

val install : t -> unit
val ambient : unit -> t

(** {1 Exporters} *)

val to_json : t -> Json_out.t
(** One object, keyed by metric name. Counters and gauges are numbers;
    a histogram is [{"buckets": [...], "counts": [...], "sum": _,
    "count": _, "p50": _, "p95": _, "p99": _}] where [counts] has one
    entry per bucket plus the overflow, summing to [count], and the
    [pNN] members are {!percentile}-derived SLO points (omitted while
    the histogram is empty). *)

val pp_prometheus : Format.formatter -> t -> unit
(** Prometheus text exposition (version 0.0.4): [# TYPE] lines, dots in
    metric names rewritten to underscores, histograms as cumulative
    [_bucket{le="..."}] series with [_sum]/[_count], followed by
    summary-style [{quantile="0.5"|"0.95"|"0.99"}] points derived with
    {!percentile}. *)
