(** Typed errors for the APT storage and evaluation stack.

    Integrity failures detected by the store layer's checksummed framing
    and resource exhaustion in the evaluator surface as
    values of {!t} carried by the {!Error} exception — never as bare
    [Failure] strings — so callers can dispatch on the failure class,
    render it through {!Lg_support.Diag}, and exit with a stable code. *)

type t =
  | Corrupt_record of { path : string option; offset : int; detail : string }
      (** A record frame failed validation: checksum mismatch,
          header/trailer disagreement, or an undecodable payload.
          [offset] is the byte offset of the failing probe. *)
  | Truncated_file of { path : string option; offset : int; detail : string }
      (** The medium ended before the record did (torn write, short
          file). *)
  | Version_mismatch of { path : string option; found : string }
      (** The file does not open with the [APT1] signature: damaged,
          foreign, or a version this build does not read. *)
  | Exhausted_retries of { path : string option; attempts : int; detail : string }
      (** A transient I/O fault persisted through the bounded
          retry-with-backoff policy ({!Store_paged}); the affected pages
          are quarantined. *)
  | Resource_limit of { what : string; limit : int; detail : string }
      (** An evaluator budget (tree depth, node count) was exceeded —
          reported instead of a stack overflow. *)

exception Error of t

exception Transient of string
(** A retryable I/O condition (injected EIO, short read) raised below
    the retry layer and absorbed by it; promoted to [Exhausted_retries]
    when the retry budget runs out. Never escapes the store layer. *)

val raise_ : t -> 'a
val transient : string -> 'a

val exit_code : t -> int
(** Stable process exit code for the CLI, pinned by [test_cli.ml]:
    corrupt record 40, truncated file 41, version mismatch 42, exhausted
    retries 43, resource limit 44. Never renumbered. *)

val to_string : t -> string
val path_of : t -> string option

val to_diag : t -> Lg_support.Diag.t
(** Render as a diagnostic; the span carries the APT file path when the
    error names one. *)

val add_to_diag : Lg_support.Diag.collector -> t -> unit
