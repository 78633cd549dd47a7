(** The versioned attribute store.

    One entry per computed attribute instance — keyed by (tree node id,
    attribute id) — holding its current value. An entry survives from
    one update to the next for as long as its node stays in the merged
    tree; {!Propagate} trusts it until a changed input reaches it
    through the dependency edges. The {!Incr} façade removes a node's
    entries in the update that discards the node, so the store holds
    exactly the live tree's instances.

    Intrinsic attributes are never stored: they live in the leaf nodes
    themselves and travel with the tree through the merge.

    The store persists through the {!Lg_apt.Aptfile} façade — and hence
    through any store registered in [lib/apt/store/] ([paged], [zip],
    fault-injecting wrappers, …): {!save} streams the entries as APT
    records, {!load} reads them back through the full integrity stack
    (paging, CRC framing, retry budgets). A quarantined page surfaces as
    a typed {!Lg_apt.Apt_error}, which the {!Incr} façade converts into
    a clean full-evaluation fallback. *)

type t

val create : unit -> t
val find : t -> node:int -> attr:int -> Lg_support.Value.t option

(** What {!record} did to the cached entry. [Created] means no previous
    value existed (a fresh instance); [Changed] means a previous value
    was overwritten with a different one — the only case that must
    propagate to consumers. *)
type write = Created | Changed | Unchanged

val record : t -> node:int -> attr:int -> Lg_support.Value.t -> write
val remove : t -> node:int -> attr:int -> unit

val cardinal : t -> int
(** Number of stored instances. *)

(** {1 Persistence through the APT store registry} *)

val save : t -> Lg_apt.Aptfile.backend -> Lg_apt.Aptfile.file
(** Stream the store (a header record carrying the entry count, then one
    record per entry) through [backend]. Raises {!Lg_apt.Apt_error.Error}
    on store faults. *)

val load : Lg_apt.Aptfile.file -> t
(** Read a {!save}d store back. Raises {!Lg_apt.Apt_error.Error} on any
    integrity failure (corrupt record, truncation, retry exhaustion),
    including a record count that disagrees with the header — a store
    cut at a record boundary. *)
