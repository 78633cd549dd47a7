(** The persisted form of the per-tenant accounting kept in
    {!Session}'s tenant table: per session digest, its label, job and
    success counts, failures keyed by typed exit code, and queue-wait/
    service time totals.

    Unlike every other [server.*] surface this accounting is meant to
    survive a respawn — quota and billing cannot restart from zero
    because a host rolled — so it round-trips through a versioned
    [linguist_tenants:1] JSON snapshot: {!save} writes atomically
    (temp file + rename, so a crash mid-write leaves the previous
    snapshot intact) and {!load} {e merges} rows into the live table
    (counts add), which makes load-at-boot + save-at-drain/shutdown an
    exactly-once accounting cycle. Cache traffic and strikes are not
    persisted. *)

val row_members :
  string -> Session.tenant -> (string * Lg_support.Json_out.t) list
(** One digest's persisted members, in file order — the [tenants]
    serve op's row extends them with the live columns. *)

val to_json : Session.cache -> Lg_support.Json_out.t
(** The persistent snapshot document: one row per {!Session.tenants}
    entry. *)

val write_json : path:string -> Lg_support.Json_out.t -> (unit, string) result
(** Write a pretty-printed document and a newline atomically: into
    [path ^ ".part"], then rename over [path], so a reader never sees a
    truncated file. Serve's ledger snapshots and postmortem dumps both
    go through it. *)

val save : Session.cache -> path:string -> (unit, string) result
(** {!write_json} of {!to_json}. *)

val read : path:string -> ((string * Session.tenant) list, string) result
(** A snapshot's rows, by digest, checked as {!load} checks them but
    merged nowhere — how a caller refuses a bad file before it starts
    serving. *)

val load : Session.cache -> path:string -> (int, string) result
(** Merge a snapshot's rows into the cache's tenant table; [Ok n] is the
    number of rows merged. [Error] on unreadable files, non-snapshot
    JSON, a wrong version or a malformed row (no digest, a count that
    is not a non-negative integer, seconds not finite and non-negative,
    a present field of the wrong type); every row is checked before any
    is merged. The caller decides whether a missing file is fine (a
    first boot) or fatal. *)
