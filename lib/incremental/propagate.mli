(** The worklist evaluator: re-fire only what an edit can reach.

    Evaluation proceeds in two intertwined disciplines over the merged
    tree:

    {ol
    {- {b Demand} — every fresh production instance (a {!Tree_diff}
       seed) fires all of its semantic rules through
       [Linguist.Sem_ops.eval_rule], the evaluator every engine mode and
       {!Linguist.Demand} share; a rule input that is not yet in the
       versioned store is computed recursively, as {!Linguist.Demand}
       does, while an input cached by a previous
       update is trusted and returned in O(1) — the cutoff that makes the
       pass O(edit).}
    {- {b Change propagation} — when a firing overwrites a cached value
       with a {e different} one ({!Attr_versions.Changed}), the rules
       consuming that instance — read off the [Ir] dependency edges, the
       same [r_deps] sets {!Linguist.Pass_assign} schedules from — are
       queued for the next {e wave}. Waves re-fire queued rules against
       current values until no write changes anything.}}

    On the acyclic dependency graphs the evaluability check admits, the
    fixpoint is reached in finitely many waves and equals the
    from-scratch valuation — the differential tests hold the evaluator
    to that, byte for byte. Unchanged writes propagate nothing: an edit
    whose consequences die out early (the common case) touches a small
    neighbourhood no matter how large the tree is. *)

(** Consumer edges per production, precomputed once per [Ir.t]: which
    rules of a production read a given (occurrence, attribute). *)
type dep_index

val dep_index : Linguist.Ir.t -> dep_index

type outcome = {
  fired : int;  (** semantic-rule firings — the O(edit) headline number *)
  waves : int;  (** worklist rounds after the seed pass *)
  changed : int;  (** writes that overwrote a cached value *)
  cache_hits : int;  (** inputs served from an entry already stored *)
}

exception Stuck of string
(** Non-convergence or a circular demand — cannot happen on plans that
    passed the evaluability check; the façade maps it to a full-eval
    fallback rather than an answer. *)

val run :
  ir:Linguist.Ir.t ->
  index:dep_index ->
  versions:Attr_versions.t ->
  parents:(int, Lg_apt.Tree.t * int) Hashtbl.t ->
  tracer:Lg_support.Trace.t ->
  seeds:Lg_apt.Tree.t list ->
  max_fired:int ->
  outcome
(** Fire the seeds, drain the waves. [parents] maps a node id to its
    parent node and child position in the merged tree (the root has no
    entry). [max_fired] is the runaway guard; exceeding it raises
    {!Stuck}. One trace span per wave, category ["incremental"]. *)

val demand :
  ir:Linguist.Ir.t ->
  versions:Attr_versions.t ->
  parents:(int, Lg_apt.Tree.t * int) Hashtbl.t ->
  Lg_apt.Tree.t ->
  int ->
  Lg_support.Value.t
(** [demand ~ir ~versions ~parents node attr] — read an attribute
    instance, computing (and caching) it on demand if missing. Used to
    pull the root outputs after {!run}. *)
