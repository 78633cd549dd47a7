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
       pass O(edit). A cell being computed carries an in-progress marker
       ({!Attr_versions.mark}), so a demand that reaches it again is a
       cycle.}
    {- {b Change propagation} — when a firing overwrites a cached value
       with a {e different} one ({!Attr_versions.Changed}), the rules
       consuming that instance — read off the [Ir] dependency edges, the
       same [r_deps] sets {!Linguist.Pass_assign} schedules from — are
       queued for the next {e wave}. Waves re-fire queued rules, in the
       order they were queued, against current values until no write
       changes anything.}}

    On the acyclic dependency graphs the evaluability check admits, the
    fixpoint is reached in finitely many waves and equals the
    from-scratch valuation — the differential tests hold the evaluator
    to that, byte for byte. Unchanged writes propagate nothing: an edit
    whose consequences die out early (the common case) touches a small
    neighbourhood no matter how large the tree is. *)

(** Everything propagation needs to know about a plan, computed once
    per [Ir.t] and held in arrays indexed by production, child position
    and cell: each node's cells, the rule defining each (production,
    occurrence, attribute), the rules consuming it, every rule's
    operands and targets resolved to cells (its expression stays in the
    IR, leaf [i] reading operand [i]), and the firing budget's rule
    bound. *)
type dep_index

val dep_index : Linguist.Ir.t -> dep_index
val ir : dep_index -> Linguist.Ir.t

val widths : dep_index -> int array
(** Per production: the cells one node's row has — the non-intrinsic
    attributes of the left-hand side, then of the limb, in declaration
    order. *)

val budget : dep_index -> tree_size:int -> int
(** The firing budget for a tree of [tree_size] nodes: eight times the
    tree's size times the most rules any production has, plus slack. *)

type outcome = {
  fired : int;  (** semantic-rule firings — the O(edit) headline number *)
  waves : int;  (** worklist rounds after the seed pass *)
  changed : int;  (** writes that overwrote a cached value *)
  cache_hits : int;  (** inputs served from an entry already stored *)
}

exception Stuck of string
(** Non-convergence or a circular demand — cannot happen on plans that
    passed the evaluability check; the façade maps it to a full-eval
    fallback rather than an answer. Raising it takes every in-progress
    marker out of the store. *)

val run :
  index:dep_index ->
  versions:Attr_versions.t ->
  tracer:Lg_support.Trace.t ->
  seeds:Lg_apt.Tree.t list ->
  max_fired:int ->
  outcome
(** Fire the seeds, drain the waves, then {!Attr_versions.settle} the
    store. Every node of the merged tree must have its row in
    [versions], the seeds' rows added since the last settle.
    [max_fired] is the runaway guard; exceeding it raises {!Stuck}. One
    trace span per wave, category ["incremental"]. *)

val demand :
  index:dep_index ->
  versions:Attr_versions.t ->
  Lg_apt.Tree.t ->
  int ->
  Lg_support.Value.t
(** [demand ~index ~versions node attr] — read an attribute instance,
    computing (and caching) it on demand if missing. Used to pull the
    root outputs after {!run}. *)
