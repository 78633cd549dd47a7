(** Demand-driven (memoized, lazy) attribute evaluation on an in-memory
    tree: the differential-testing oracle.

    This evaluator knows nothing of passes, files, schedules, or static
    subsumption — each attribute instance is computed on first demand by
    locating its unique defining semantic function (in the node's own
    production for synthesized and limb attributes, in the parent's for
    inherited ones) and recursing. Agreement between this oracle and
    {!Engine} on random trees is the library's central correctness
    property: the alternating-pass machinery and all its optimizations are
    pure evaluation-order transformations. *)

exception Circular of string
(** A circularly defined attribute instance was demanded. *)

type result = {
  outputs : (string * Lg_support.Value.t) list;
      (** root synthesized attributes *)
}

val evaluate : Ir.t -> Lg_apt.Tree.t -> result
(** Forces {e every} attribute instance, not only those the root needs —
    that is the oracle's contract: a circular or undefined instance
    anywhere in the tree fails the run, whether or not an output reads it.
    Instances live in one row per node; no rule application is kept.
    @raise Circular on circular instances
    @raise Invalid_argument if the tree does not fit the grammar *)

val evaluate_traced :
  Ir.t -> Lg_apt.Tree.t -> result * (int * Lg_support.Value.t list) list
(** {!evaluate}, also returning every rule application in the tree:
    (rule id, values), one entry per rule of each production instance, in
    demand order
    — comparable with the engine's trace. Only callers that compare traces
    pay for the list. *)

val instance : Ir.t -> Lg_apt.Tree.t -> path:int list -> attr:string -> Lg_support.Value.t
(** Value of one attribute instance, addressed by the child-index path
    from the root. For tests that probe interior nodes.
    @raise Invalid_argument if the path leaves the tree *)
