(** Structural diff of a freshly parsed tree against the cached one.

    [merge] does not return an edit script; it returns a {e merged} tree
    that physically reuses every cached subtree whose fingerprint
    matches the incoming parse. Reused nodes keep their node ids, so
    every attribute value the versioned store holds for them stays
    addressable; the freshly built nodes — the spine above an edit plus
    the edited region itself — have new ids, no cached values, and form
    the dirty set that seeds {!Propagate}. The cached nodes the merge
    does not keep — each rebuilt spine node and every node of an
    overwritten subtree — are reported as {e discarded}, so the caller
    can drop their state without walking the tree.

    Merge cases, per position:
    - fingerprints equal → splice the old physical node (O(1) thanks to
      {!Fingerprint}); the whole subtree is reused;
    - same production → fresh interior node over positionally merged
      children (the edit is deeper down);
    - anything else → adopt the incoming subtree wholly (every interior
      node in it is dirty) and discard the cached one.

    Every cached node is therefore either reused or discarded, never
    both: [discarded] has [prev_nodes - reused_nodes] elements.

    Because a child's shape change changes every ancestor's fingerprint,
    the fresh region is exactly the edited subtrees plus their root
    spine — O(edit · depth) nodes for an O(edit) text change. *)

type stats = {
  prev_nodes : int;  (** size of the cached tree *)
  next_nodes : int;  (** size of the incoming parse *)
  reused_nodes : int;  (** merged-tree nodes shared with the cached tree *)
  fresh_nodes : int;  (** merged-tree nodes built or adopted this update *)
  churn : float;  (** [fresh_nodes / (reused_nodes + fresh_nodes)] *)
}

val merge :
  Fingerprint.t ->
  prev:Lg_apt.Tree.t ->
  next:Lg_apt.Tree.t ->
  Lg_apt.Tree.t * Lg_apt.Tree.t list * Lg_apt.Tree.t list * stats
(** [(merged, seeds, discarded, stats)]: the merged tree, its fresh
    {e interior} nodes (the production instances whose rules must
    re-fire), the cached nodes absent from it, and the reuse accounting.
    Both trees must be fingerprinted by the same interner across the
    session. *)
