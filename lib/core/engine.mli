(** The alternating-pass attribute evaluator.

    Interprets {!Plan} plans over intermediate {!Lg_apt.Aptfile} files,
    performing exactly the reads, writes, evaluations, copies and global
    save/restores that LINGUIST-86's generated Pascal would: the APT lives
    in the files, and only the spine of currently open nodes (one
    production-procedure frame per level) is resident — the property that
    let the original run 42 KB trees in 48 KB of memory.

    Pass [k] reads the file written by pass [k-1] {e backwards} (the
    alternating-file-order trick); with the [recursive_descent] strategy the
    first pass instead reads the parser's prefix-order file forwards. *)

type options = {
  backend : Lg_apt.Aptfile.backend;
  record_trace : bool;
      (** collect every rule evaluation for differential testing *)
  interpretive : bool;
      (** evaluate semantic functions interpretively, Schulz-style: ignore
          the compiled expressions and re-resolve every attribute
          occurrence from the IR at each evaluation (the paper contrasts
          its generated in-line code against this). Requires a plan built
          without static subsumption.
          @raise Invalid_argument from {!run} otherwise *)
  depth_budget : int;
      (** maximum simultaneously open (nested) nodes before the run fails
          with a typed {!Lg_apt.Apt_error.Resource_limit} diagnostic
          instead of a stack overflow; [0] disables the check *)
  node_budget : int;
      (** maximum APT records read across the whole run; [0] = unlimited *)
}

val default_depth_budget : int
(** 100_000 open nodes — generous for real trees, small enough that the
    budget fires long before the native stack would. *)

val default_options : options
(** ["mem"] backend, no rule trace, compiled evaluation; the default
    depth budget, no node budget. *)

type pass_stats = {
  ps_pass : int;
  ps_io : Lg_apt.Io_stats.t;
  ps_rules : int;  (** rules evaluated *)
  ps_global_moves : int;  (** saves + sets + restores + captures *)
  ps_file_bytes : int;  (** size of the file this pass wrote *)
}

type run_stats = {
  rules_evaluated : int;
  global_moves : int;
  max_open_nodes : int;  (** deepest spine of simultaneously open nodes *)
  max_resident_slots : int;
      (** attribute instances resident at the worst moment (node slots +
          frame temporaries) *)
  total_io : Lg_apt.Io_stats.t;
  per_pass : pass_stats list;
  apt_total_bytes : int;  (** size of the largest intermediate file *)
}

type result = {
  outputs : (string * Lg_support.Value.t) list;
      (** the root's synthesized attributes — the translation result *)
  stats : run_stats;
  trace : (int * Lg_support.Value.t list) list;
      (** (rule id, values defined), evaluation order; empty unless
          [record_trace] *)
}

exception Evaluation_error of string
(** Input tree inconsistent with the grammar, or a corrupt stream. *)

val run : ?options:options -> Plan.t -> Lg_apt.Tree.t -> result
(** Linearize the tree (the parser's job), then run every pass. Each
    intermediate file is disposed as soon as it is consumed; a run that
    raises first closes its open reader and writer and disposes every
    file it created, then re-raises the same exception.

    Telemetry goes to the ambient tracer ({!Lg_support.Trace.install}):
    each run contributes an ["engine.run"] span with a ["linearize"]
    child and one ["pass k"] child per pass, carrying the pass's
    {!Lg_apt.Io_stats} counters, [rules], [global_moves] and
    [file_bytes] as arguments. When the tracer was installed with
    [~attr_counts:true] (the CLI's [--trace-attrs], à la Sasaki–Sassa),
    each pass span also carries one ["evals:<production tag>"] count per
    production that evaluated rules in that pass.
    @raise Evaluation_error as above. *)

val initial_file :
  ?stats:Lg_apt.Io_stats.t ->
  Plan.t ->
  Lg_apt.Aptfile.backend ->
  Lg_apt.Tree.t ->
  Lg_apt.Aptfile.file
(** Just the parser-side linearization: postfix for [bottom_up], prefix
    for [recursive_descent], with the pass-0 record layout
    ({!Plan.record_slots}). *)

val leaf_attr_values :
  Ir.t -> sym:int -> (string * Lg_support.Value.t) list -> Lg_support.Value.t array
(** Helper to build a terminal's intrinsic slots from name/value pairs.
    @raise Evaluation_error on an unknown attribute name. *)
