(** I/O accounting for the intermediate APT files.

    LINGUIST-86's operating characteristics hinge on the observation that
    the generated evaluators are I/O bound; every byte and record moved
    through the APT files is tallied here so the benchmark harness can
    attribute time to transfer volume (experiments E4, E6, F2).

    Byte counters record traffic against the backing medium and are
    maintained by the store implementations ({!Apt_store}); record
    counters are maintained by the {!Aptfile} façade. Page-level counters
    are populated only by the paged store; raw-byte counters
    only by compressing store layers.

    Every counter is an [Atomic.t]: one tally may be fed by store layers
    running on several domains at once (the batch-evaluation pool), and
    increments must not be lost under that race. Producers bump fields
    with {!bump}; consumers read them with [Atomic.get] (or take the
    whole row via {!fields}). Aggregate readers ({!fields}, {!add},
    {!to_json_value}) are {e per-field} atomic — a snapshot taken while
    another domain is mid-update can mix old and new counters, which is
    fine for telemetry and exact once the producers have quiesced. *)

type t = {
  bytes_read : int Atomic.t;
  bytes_written : int Atomic.t;
  records_read : int Atomic.t;
  records_written : int Atomic.t;
  files_created : int Atomic.t;
  pages_read : int Atomic.t;  (** pages fetched from the medium *)
  pages_written : int Atomic.t;  (** pages flushed to the medium *)
  pool_hits : int Atomic.t;  (** page requests served from the buffer pool *)
  pool_misses : int Atomic.t;  (** page requests that went to the medium *)
  prefetch_hits : int Atomic.t;
      (** pool hits on pages loaded by read-ahead *)
  seeks : int Atomic.t;  (** non-contiguous repositionings of the medium *)
  retries : int Atomic.t;
      (** physical reads repeated after a transient I/O fault
          ({!Store_pager}'s bounded retry-with-backoff policy) *)
  pages_quarantined : int Atomic.t;
      (** pages given up on after the retry budget was exhausted;
          further reads of a quarantined page fail immediately *)
  raw_bytes_read : int Atomic.t;
      (** bytes the base store would have moved uncompressed (payload +
          framing) for the records delivered *)
  raw_bytes_written : int Atomic.t;
      (** bytes the base store would have moved uncompressed (payload +
          framing) for the records accepted *)
}

val create : unit -> t
val reset : t -> unit

val bump : int Atomic.t -> int -> unit
(** [bump field n] atomically adds [n] — the producers' increment,
    e.g. [Io_stats.bump s.bytes_read len]. *)

val get : int Atomic.t -> int
(** [Atomic.get]; reads one counter, e.g. [Io_stats.get s.retries]. *)

val add : into:t -> t -> unit
(** Field-wise accumulation; covers every counter. *)

val fields : t -> (string * int) list
(** Every counter as a (name, value) pair, in declaration order. [add],
    [reset], [to_json] and this function are all derived from one internal
    field table, so they cannot drift apart when counters are added; the
    list is also how counters are attached to trace spans
    ({!Lg_support.Trace}). *)

val set_field : t -> string -> int -> unit
(** Set one counter by name (the write-side of {!fields}; used by tests
    and decoders). @raise Invalid_argument on an unknown name. *)

val total_bytes : t -> int
val total_pages : t -> int

val compression_ratio : t -> float option
(** [raw_bytes_written / bytes_written] when a compressing layer ran,
    [None] otherwise. Above 1.0 means the store shrank the stream. *)

val modeled_seconds : t -> bytes_per_second:float -> float
(** Transfer time under a sequential-device cost model — the floppy/rigid
    disk of the paper's 8086 host. *)

val modeled_seconds_seek :
  t -> bytes_per_second:float -> seek_seconds:float -> float
(** Like {!modeled_seconds} but charging each recorded seek separately —
    what a paged store's pool misses cost on a seeking device, where
    read-ahead turns many small seeks into a few page-boundary ones. *)

val to_json_value : t -> Lg_support.Json_out.t
(** One flat JSON object with every counter plus the derived
    [compression_ratio]; embedded in the bench harness's
    [BENCH_apt.json] and in run manifests. *)

val to_json : t -> string
(** [Json_out.to_string (to_json_value t)]. *)

val publish : ?prefix:string -> t -> Lg_support.Metrics.t -> unit
(** Accumulate every non-zero counter into a metrics registry as
    [prefix ^ name] (default prefix ["apt."]) — the registry view of the
    same internal field table, so new counters reach manifests and the
    bench regression gate automatically. *)
