(** The per-tenant accounting ledger behind the [tenants] serve op: one
    row per session digest ever served, carrying job/success counts,
    failures keyed by typed exit code, and queue-wait/service time
    totals. Thread-safe; charging is cheap enough for the per-job path.

    Unlike every other [server.*] surface the ledger is meant to
    survive a respawn — quota and billing cannot restart from zero
    because a host rolled — so it round-trips through a versioned
    [linguist_tenants:1] JSON snapshot: {!save} writes atomically
    (temp file + rename, so a crash mid-write leaves the previous
    snapshot intact) and {!load} {e merges} rows into the live table
    (counts add), which makes load-at-boot + save-at-drain/shutdown an
    exactly-once accounting cycle. *)

type t

val create : unit -> t

val charge :
  t ->
  digest:string ->
  label:string ->
  ok:bool ->
  exit_code:int ->
  queue_wait:float ->
  service:float ->
  unit
(** Attribute one finished job to [digest]. A non-empty [label] updates
    the row's display label; an empty [digest] is a no-op (jobs with no
    tenant — [check] — are not accounted). Failed jobs bump the
    [exit_code] bucket; supervision failures pass zero time totals. *)

val snapshot :
  t -> (string * string * int * int * (int * int) list * float * float) list
(** [(digest, label, jobs, ok, failures, queue_wait, service)] rows,
    sorted by label; [failures] is [exit code -> count] sorted by
    code. *)

val to_json : t -> Lg_support.Json_out.t
(** The persistent snapshot document. *)

val write_json : path:string -> Lg_support.Json_out.t -> (unit, string) result
(** Write a pretty-printed document and a newline atomically: into
    [path ^ ".part"], then rename over [path], so a reader never sees a
    truncated file. Serve's ledger snapshots and postmortem dumps both
    go through it. *)

val save : t -> path:string -> (unit, string) result
(** {!write_json} of {!to_json}. *)

val load : t -> path:string -> (int, string) result
(** Merge a snapshot's rows into the live table; [Ok n] is the number
    of rows merged. [Error] on unreadable files, non-snapshot JSON or a
    wrong version — the caller decides whether a missing file is fine
    (a first boot) or fatal. *)
