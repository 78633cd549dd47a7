(** The LINGUIST overlay driver: the whole translator-writing system as one
    call.

    Mirrors the original's overlay structure (§V): (1) scan and parse the
    AG source, (2–3) semantic analysis building the dictionary, rules and
    implicit copy-rules, (4) the alternating-pass evaluability test,
    (5–6) message collection and listing generation, (7) one code-generation
    run per evaluator pass. Each overlay is timed individually, which is
    what experiment E4 reports against the paper's 243-second table. *)

type options = {
  subsumption : bool;  (** apply static subsumption (default true) *)
  dead_opt : bool;  (** drop dead attributes from files (default true) *)
  max_passes : int;  (** default 16 *)
  emit_listing : bool;  (** default true *)
  emit_code : bool;  (** default true *)
}

val default_options : options

type artifact = {
  ir : Ir.t;
  passes : Pass_assign.result;
  dead : Dead.t;
  alloc : Subsume.allocation;
  plan : Plan.t;
  modules : Pascal_gen.module_code list;  (** empty unless [emit_code] *)
  listing : string;  (** empty unless [emit_listing] *)
  diag : Lg_support.Diag.collector;
  overlay_seconds : (string * float) list;
      (** ("parse", _), ("semantic", _), ("evaluability", _),
          ("planning", _), ("listing", _), ("codegen pass k", _) ...;
          durations of this run's ["overlay"] trace spans *)
  source_lines : int;
}

val process :
  ?options:options ->
  file:string ->
  string ->
  (artifact, Lg_support.Diag.collector) result
(** Run every overlay on an AG source text. [Error diag] carries all
    messages when any overlay fails.

    Every overlay runs in a span of category ["overlay"] under a
    ["driver.process"] root, recorded in the ambient tracer
    ({!Lg_support.Trace.install}); when none is installed a private
    tracer supplies the timings. [overlay_seconds] is read back from
    those spans, so traces and the E4 bench table come from one
    measurement. *)

val process_exn : ?options:options -> file:string -> string -> artifact

val plan_of_ir : ?options:options -> Ir.t -> Plan.t
(** Planning only, for grammars built programmatically (no source text):
    pass assignment, lifetime analysis, subsumption, scheduling.
    @raise Failure when the grammar is not alternating-pass evaluable. *)

val throughput_lines_per_minute : artifact -> float
(** Source lines divided by total overlay time — the paper's
    "350 to 500 lines per minute" metric. *)
