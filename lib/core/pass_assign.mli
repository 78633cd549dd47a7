(** Alternating-pass evaluability analysis (overlay 4).

    Assigns every attribute a pass number such that all its instances can be
    evaluated during that pass, where pass directions alternate: with the
    [bottom_up] parser strategy the first intermediate file is a
    left-to-right postfix linearization, so pass 1 runs right-to-left; with
    [recursive_descent] pass 1 runs left-to-right (paper §II).

    The in-pass ordering criterion is the paper's {e relaxed} one (§III,
    second optimization): a semantic function may run at any point of the
    production-procedure where its arguments are available — earlier than
    the "ordered ASE" of Pozefsky–Jazayeri — under the hard constraints
    that a child's pass-[k] inherited attributes exist before that child is
    visited, that a child's stored attributes exist only once its record
    has been read (which sequential file access forces to happen in visit
    order), and that its pass-[k] synthesized attributes exist only after
    its visit returns.

    Pass numbers start at 1 and only rise. A worklist of productions
    drives them: a production is scheduled in each pass up to its
    highest local pass, a rule that cannot run in its pass raises its
    targets to the pass it needs, and raising an attribute queues again
    exactly the productions whose rules read or define it. When the
    worklist runs dry, the last schedule of every (production, pass) was
    computed from the final pass numbers; {!compute} hands these
    schedules to the planner ({!Schedule.build}), which therefore never
    schedules a production itself. Grammars not evaluable within
    [max_passes] alternating passes are diagnosed, naming the blocking
    semantic functions. *)

type direction = L2r | R2l

val direction_of : Ag_ast.strategy -> int -> direction
(** Direction of pass [k] (1-based) under a strategy. *)

type result = {
  passes : int array;  (** attribute id -> pass; intrinsic attributes are 0 *)
  n_passes : int;  (** at least 1 *)
  strategy : Ag_ast.strategy;
}

type schedules
(** For every (production, pass), the production's semantic functions
    assigned to that pass with their time points (see below), in
    execution order: ascending time point, same-time rules ordered so
    that a rule follows the same-time rules it reads from, then by rule
    id. *)

val compute :
  ?max_passes:int ->
  diag:Lg_support.Diag.collector ->
  Ir.t ->
  (result * schedules) option
(** [max_passes] defaults to 16. [None] iff errors were reported; the
    diagnosis reads the pass numbers the worklist reaches when raises
    past [max_passes] are dropped. Adds the number of (production,
    pass) schedules computed to the ambient metrics counter
    [evaluability.schedules]. The schedules are for the planner only:
    keep the [result], drop them once the plan is built. *)

val compute_exn : ?max_passes:int -> Ir.t -> result * schedules

val schedule : schedules -> prod:int -> pass:int -> (int * int) list
(** [(rule_id, time)] for every rule of production [prod] assigned to
    [pass] (1-based). *)

val direction : result -> int -> direction

(** {1 In-pass timing — shared with the scheduler}

    Time points within one production visit, [n] = number of children, and
    [oi] the 1-based position of a child in visit order: entry is 0, a
    child's record read is [3*oi - 2], the deadline for its inherited
    attributes [3*oi - 1], its visit completion [3*oi], and production end
    [3*n + 1]. *)

val child_order : direction -> nchildren:int -> int array
(** Visit order: [child_order dir ~nchildren].(position_in_visit_order) =
    child index. *)
