(** A minimal JSON tree: one shared reader/writer for every JSON the
    system touches.

    The pipeline emits several machine-readable documents — Chrome
    [trace_event] exports ({!Trace.to_chrome_json}), APT I/O counter
    dumps ([Lg_apt.Io_stats.to_json]), the benchmark harness's
    [BENCH_*.json] tables, metrics snapshots ({!Metrics.to_json}) and
    per-run manifests ([Linguist.Manifest]) — and the test suite and the
    bench regression gate read them back. All of them go through this one
    zero-dependency module instead of ad-hoc [Printf] printers, so
    escaping and number formatting cannot drift between producers.

    Numbers are floats (as in JSON itself); integers survive a
    round-trip exactly up to 2{^53}. The parser raises [Failure] on
    malformed input. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num (float_of_int n)]. *)

(** {1 Writing} *)

val escape : string -> string
(** Body of a JSON string literal (no surrounding quotes): ASCII control
    characters, quotes and backslashes escaped. *)

val number : float -> string
(** Shortest rendering that re-parses to the same float; integral values
    print without a fractional part. JSON has no representation for
    non-finite floats, so they are clamped to the nearest representable
    value — NaN to [0], positive/negative infinity to
    [+/-Float.max_float] — keeping a {!Num} leaf numeric after a
    round-trip. *)

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents by two spaces with one
    object member / array element per line. Either form re-parses with
    {!parse} to an equal tree, up to the non-finite clamping documented
    at {!number}. *)

val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit

(** {1 Reading} *)

val max_depth : int
(** 512: the deepest object/array nesting {!parse} accepts. *)

val parse : string -> t
(** @raise Failure on malformed input, with the byte offset, and on
    nesting deeper than {!max_depth}. *)

val member : string -> t -> t option
(** Object member lookup; [None] on a missing key or a non-object. *)

val member_exn : string -> t -> t
val to_list : t -> t list
val to_num : t -> float
val to_int : t -> int
val to_str : t -> string
