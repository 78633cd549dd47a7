(** Pipeline-wide tracing and profiling.

    A zero-dependency telemetry layer (stdlib + [Unix.gettimeofday] only)
    with hierarchical spans, typed counters, and two exporters: a human
    summary ({!pp_summary}) and Chrome [trace_event] JSON
    ({!to_chrome_json}) that renders in [chrome://tracing] and Perfetto.

    The span hierarchy mirrors the system's phase structure: the driver's
    overlays (scan/parse, semantic analysis, evaluability, planning,
    listing, per-pass codegen), the evaluator's alternating passes — each
    carrying its {!Io_stats} as span arguments — and the LALR/scanner
    table constructions. See [docs/OBSERVABILITY.md].

    A disabled tracer ({!null}) reduces every operation to a single field
    check, so instrumented code paths cost nothing when tracing is off.

    Enabled tracers guard their state with an internal mutex, so
    counters and {!absorb} are safe from any number of domains. The span
    {e stack}, though, tells one well-nested story: concurrent workers
    should record spans into private per-job tracers and let the parent
    {!absorb} them when the job completes (the batch-evaluation pool
    does exactly this). The ambient tracer is domain-local — {!install}
    affects only the calling domain. *)

type arg = Int of int | Float of float | Str of string
(** A typed span argument / counter value. *)

type span = {
  sp_name : string;
  sp_cat : string;  (** category: ["overlay"], ["pass"], ["tables"], … *)
  sp_depth : int;  (** number of enclosing spans when it began *)
  sp_start : float;  (** seconds since the tracer's epoch *)
  sp_dur : float;  (** seconds *)
  sp_args : (string * arg) list;  (** attached counters, in attach order *)
}

type t

val null : t
(** The disabled tracer: every operation is a near-no-op. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A fresh enabled tracer. [clock] (default [Unix.gettimeofday]) is read
    once at creation for the epoch and once per span begin/end; inject a
    deterministic counter for reproducible tests. *)

val enabled : t -> bool

(** {1 Spans} *)

val span : t -> ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span. The span is closed even when
    [f] raises, so traces stay balanced across error paths. *)

val begin_span : t -> ?cat:string -> string -> unit
(** Open a span manually; prefer {!span} where scoping allows. *)

val end_span : t -> ?args:(string * arg) list -> unit -> unit
(** Close the innermost open span, attaching [args]. No-op if nothing is
    open (a hardening choice: unbalanced instrumentation must not crash
    the pipeline it observes). *)

val add_args : t -> (string * arg) list -> unit
(** Attach arguments to the innermost open span; no-op when none is open. *)

val open_depth : t -> int
(** Number of currently open spans; 0 when the trace is balanced. *)

(** {1 Counters} *)

val counter : t -> string -> int -> unit
(** [counter t name n] adds [n] to the tracer-wide counter [name]. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Reading a trace} *)

val spans : t -> span list
(** Completed spans in completion order (children before parents). *)

val open_spans : t -> span list
(** Spans begun but not yet ended, outermost first; [sp_dur] is the time
    each has been open so far and [sp_args] what {!add_args} attached. *)

val epoch : t -> float
(** The clock reading span starts are relative to: a span began at
    [epoch t +. sp_start]. *)

val span_count : t -> int
(** [List.length (spans t)], O(1); a cheap high-water mark so callers can
    slice out the spans of one sub-computation. *)

val elapsed : t -> float
(** Seconds since the tracer's epoch. *)

val absorb : t -> t -> unit
(** [absorb t child] splices a finished private tracer into [t]: the
    child's closed spans reappear in [t] shifted to [t]'s epoch (the two
    tracers should share a clock) and nested under [t]'s currently open
    spans; counters accumulate by name. No-op unless both tracers are
    enabled. This is how per-job traces from pool workers land in the
    run-wide trace a CLI [--trace-out] exports. *)

(** {1 The ambient tracer}

    The CLI and benchmark harness install one tracer for a whole run;
    deep call sites (the evaluator reached through {!Translator}, table
    construction) fall back to it when no explicit tracer was threaded
    to them. Defaults to {!null}: nothing is traced unless installed.
    The binding is per-domain: a freshly spawned domain starts at
    {!null} and installs its own (typically per-job) tracer. *)

val install : ?attr_counts:bool -> t -> unit
(** Make [t] the ambient tracer. [attr_counts] (default [false]) turns on
    per-production attribute-evaluation counting in the evaluator — the
    CLI's [--trace-attrs] debugging mode (à la Sasaki–Sassa). *)

val ambient : unit -> t

val ambient_attr_counts : unit -> bool

(** {1 Exporters} *)

val arg_json : arg -> Json_out.t

val pp_summary : Format.formatter -> t -> unit
(** Hierarchical summary: per span path, call count, total seconds, and
    summed integer arguments; then the tracer-wide counters. Sibling
    spans with the same name are merged. *)

val to_chrome_json : ?process_name:string -> t -> string
(** Chrome [trace_event] JSON (the ["traceEvents"] object form): one
    ["ph":"X"] complete event per span with microsecond [ts]/[dur], one
    ["ph":"C"] event per tracer-wide counter, and a process-name metadata
    record. Open [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}
    and load the file. *)

val write_chrome : ?process_name:string -> t -> path:string -> unit
(** {!to_chrome_json} to a file. *)
