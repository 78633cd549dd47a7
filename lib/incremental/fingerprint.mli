(** Hash-consed subtree fingerprints.

    The diff needs to decide "is this freshly parsed subtree identical to
    the cached one?" in O(1) per comparison. Rather than probabilistic
    hashing, subtrees are {e interned}: a bottom-up walk assigns every
    distinct subtree shape (production, symbol, intrinsic attribute
    values, child shapes) a dense integer, so two subtrees are
    structurally identical {b iff} their cons ids are equal — exact, no
    collision caveat in the differential guarantee.

    Cons ids are memoized by {!Lg_apt.Tree.t} node id. Because the merge
    ({!Tree_diff}) physically reuses old nodes, a session's long-lived
    tree re-fingerprints in O(1) per node on every subsequent update;
    only the freshly parsed tree pays a full (cheap, semantic-free)
    walk — the same O(tree) the parse itself already paid. *)

type t

val create : unit -> t

val cons : t -> Lg_apt.Tree.t -> int
(** The subtree's cons id. [cons t a = cons t b] iff
    [Tree.equal_shape a b] (within one interner [t]; ids from different
    interners are incomparable). *)

val size : t -> Lg_apt.Tree.t -> int
(** Node count of the subtree, memoized per cons id: O(1) once the
    subtree is interned. *)

val memo_size : t -> int
(** Number of node-id memo entries. The memo never forgets a node:
    every incoming parse adds its nodes, and nodes the merge discards
    keep theirs. {!Incr} rebuilds the interner from the live tree once
    this outgrows [3 · tree + 1024]. *)
