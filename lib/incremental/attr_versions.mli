(** The versioned attribute store.

    One entry per computed attribute instance — keyed by (tree node id,
    attribute id) — holding its current value. An entry survives from
    one update to the next for as long as its node stays in the merged
    tree; {!Propagate} trusts it until a changed input reaches it
    through the dependency edges. The {!Incr} façade removes a node's
    entries in the update that discards the node, so the store holds
    exactly the live tree's instances.

    Intrinsic attributes are never stored: they live in the leaf nodes
    themselves and travel with the tree through the merge. *)

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
