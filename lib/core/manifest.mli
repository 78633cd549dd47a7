(** Run manifests: one JSON document describing a whole CLI run.

    A manifest is the machine-readable record of a translation — the
    grammar statistics of the paper's §IV table, the pass plan, the
    overlay timings (from the same trace spans [--trace-out] exports),
    and a full snapshot of the ambient metrics registry
    ({!Lg_support.Metrics}).
    The CLI writes one with [--report FILE] ([-] for stdout), the
    [report] subcommand renders one back for humans, and the bench
    harness's [diff] mode compares two of them with per-metric
    tolerances — the regression gate CI runs against checked-in
    baselines.

    The document is an ordinary {!Lg_support.Json_out.t}; nothing here
    depends on how it is stored. *)

val version : int
(** Schema version, stored under the ["linguist_manifest"] key. *)

val build :
  ?command:string ->
  file:string ->
  Driver.artifact ->
  Lg_support.Json_out.t
(** Assemble the manifest for one successful run, with the ambient
    metrics registry's snapshot; [command] (the CLI subcommand) is
    recorded when given. *)

val write : dest:string -> Lg_support.Json_out.t -> unit
(** Pretty-print the document to [dest], or to stdout when [dest] is
    ["-"]. *)

val pp : Format.formatter -> Lg_support.Json_out.t -> unit
(** Human-readable rendering of a manifest (the [report] subcommand):
    known scalar sections as aligned tables, anything else generically,
    so manifests from newer schema versions still render. *)
