(** Static subsumption: choosing the statically allocated attribute set
    (paper §III).

    Attributes are grouped by (name, class): following the paper,
    LINGUIST-86 "allocates all static attributes with the same name to the
    same global variable", and we keep inherited and synthesized name
    groups apart so the save/restore protocol stays uniform per global.
    Candidates are attributes whose every reference falls in their own
    evaluation pass (the "context information" case the paper highlights);
    cross-pass attributes must live in the APT records, so they are never
    static here.

    The selection algorithm is the paper's: start with every candidate
    static, then repeatedly evict any attribute whose save/restore cost
    exceeds the code saved by the copy-rules it subsumes — eviction can
    de-subsume copies of its neighbours, so iterate to a fixpoint (the
    paper's easy-but-correct O(n^3) procedure, not an optimum). *)

type allocation = {
  static : bool array;  (** per attribute id *)
  global_of : int array;  (** attribute id -> global index, or -1 *)
  n_globals : int;
  group_name : string array;  (** global index -> attribute name *)
  group_is_syn : bool array;  (** global index -> synthesized group? *)
}

type policy =
  | Per_attribute
      (** the paper's algorithm: evict any single attribute whose
          save/restore cost exceeds the code its own subsumable copies
          save; iterate, since evictions de-subsume neighbours' copies.
          Correct and easy, "but it does not always find an optimal set" —
          in particular an expensive seed attribute can cascade-evict a
          whole same-name chain. *)
  | Per_group
      (** the global analysis the paper's conclusions call for: decide per
          (name, class) group, weighing all the group's subsumable copies
          against all its non-copy definitions at once. Default. *)

type costs = { copy_cost : int; save_restore_cost : int }

val default_costs : costs
(** [copy_cost = 4], [save_restore_cost = 6] — relative sizes of an
    explicit copy assignment vs a save/set/restore triple in the generated
    code, mirroring the paper's "percentage ... based on the relative
    costs". *)

val analyze : ?costs:costs -> ?policy:policy -> Ir.t -> allocation

val none : Ir.t -> allocation
(** The empty allocation (subsumption disabled). *)

type report = {
  candidates : int;
  chosen : int;
  subsumed_copy_rules : int;  (** copy-rules needing no code at all *)
  evictions : int;  (** attributes removed by the cost model *)
}

val report : Ir.t -> allocation -> report
(** [subsumed_copy_rules] counts copies [t = s] with [t] and [s] static in
    the same global — the rules the generated evaluator elides (the final
    plan may still need a handful of them as explicit sets when a global is
    clobbered in between; the code generator reports exact numbers). *)

val is_subsumable_copy : Ir.t -> allocation -> Ir.rule -> bool
