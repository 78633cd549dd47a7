(** The incremental re-translation façade.

    One [update] call per freshly parsed tree: diff against the cached
    tree ({!Tree_diff}), re-fire the edit's consequences
    ({!Propagate}), read the root outputs back from the versioned store
    ({!Attr_versions}). The contract is differential — the outputs of
    every update are byte-identical to a from-scratch {!Linguist.Demand}
    / {!Linguist.Engine} evaluation of the same tree — so a caller can
    treat incremental mode as a pure latency optimisation.

    Two fallbacks guard the fast path, both counted in
    [incremental.fallbacks]:
    - {b churn}: when the diff marks more than [threshold] of the tree
      fresh, propagation would approach full evaluation anyway; the
      update runs the classic {!Linguist.Engine} instead and drops the
      session state (the next update rebuilds it from scratch);
    - {b stuck}: a propagation that does not converge, or a fresh
      build that meets a circular demand, abandons the incremental
      state and runs the full engine.
    Either way the full engine runs once: the caller sees a correct
    answer or the engine's own typed {!Lg_apt.Apt_error} (exit 40–44),
    never a wrong answer. *)

type config = {
  threshold : float;
      (** churn fraction above which the update falls back to the full
          engine; 0.5 by default *)
}

val default_config : config

type state
(** Cached per-document session state: the last merged tree, the
    versioned attribute store (one row per interior node: its parent
    link and its attribute instances), the fingerprint interner, and
    the plan's dependency index, which every document of the plan
    shares. After every update the store holds exactly the merged
    tree's rows: the nodes the merge discards take theirs with them, at
    a cost proportional to the edit. Only the interner accumulates,
    until its rebuild (counted in [incremental.compactions]). *)

val memory_cells : state -> int
(** Stored attribute instances + rows (one parent link each). Equal to
    a fresh {!update}'s on the same tree. *)

type mode =
  | Fresh of { fired : int }  (** no usable previous state *)
  | Incremental of {
      reused : int;
      fresh : int;
      fired : int;
      waves : int;
      changed : int;
    }
  | Fallback of { reason : string; churn : float }

type result = {
  outputs : (string * Lg_support.Value.t) list;
  mode : mode;
  tree_size : int;
}

val update :
  ?state:state ->
  config ->
  plan:Linguist.Plan.t ->
  engine_options:Linguist.Engine.options ->
  tree:Lg_apt.Tree.t ->
  result * state option
(** Evaluate [tree], reusing [state] when it belongs to the same plan.
    Returns the next state to cache — [None] after a fallback, so the
    following update rebuilds from scratch. Counters ([incremental.*])
    go to the ambient {!Lg_support.Metrics} registry and spans to the
    ambient {!Lg_support.Trace} tracer. Raises
    {!Lg_apt.Apt_error.Error} only out of the full-engine fallback
    path. *)
