(** The [linguist_jobs:1] job-list format.

    A jobfile is what [linguist batch] consumes and what a [serve]
    client embeds one entry of in a ["job"] request: a JSON document

    {v
    { "linguist_jobs": 1,
      "jobs": [
        { "id": "calc-1", "op": "analyze", "file": "grammars/desk_calc.ag",
          "store": "paged", "page_size": 4096,
          "faults": "7:0.01:transient",
          "depth_budget": 100000, "node_budget": 0 },
        { "id": "sum", "op": "translate", "language": "desk_calc",
          "file": "inputs/sum.calc" } ] }
    v}

    Operations: ["check"] (native driver diagnostics), ["analyze"] (the
    self-hosted evaluator generated from [linguist.ag] over an [.ag]
    source — a full parallel evaluator run), ["translate"] (a tenant
    translator over an input text), and ["update"] (an incremental
    re-translation: like ["translate"], but when the batch/serve run has
    [--incremental] on, successive updates to the same ["doc"] diff
    against the cached tree and re-fire only the edit's consequences —
    see [docs/INCREMENTAL.md]). ["translate"]/["update"] name their
    tenant with exactly one of ["language"] (a built-in; see
    {!Session.language_names}) or ["grammar"] (a path to an [.ag]
    source compiled on demand — the corpus multi-tenant path, see
    [docs/CORPUS.md]). Every field but [op] and [file] is
    optional: [id] defaults to ["job-N"] (1-based position), [doc] (only
    valid on ["update"]) to the job's [file] path, [store] to ["mem"],
    budgets to the engine defaults, [faults] (a [SEED:RATE:KINDS] spec
    as in [--apt-faults]) to none, [deadline] (a positive wall-clock
    budget in seconds, measured from submission — queue wait counts) to
    the run's [--deadline] default or none.

    Reading is strict — an unknown [op], a malformed [faults] spec or a
    wrong [linguist_jobs] version is an [Error], not a guess — and
    {!to_string} emits a document that re-reads to the same list, which
    the golden round-trip in [test_cli.ml] pins. *)

type tenant =
  | Language of string
      (** a built-in language translator; see {!Session.language_names} *)
  | Grammar of string
      (** path to an [.ag] source compiled on demand into a translator
          with the grammar-derived symbolic scanner
          ({!Linguist.Translator.of_source}) — the multi-tenant path
          corpus workloads use (see [docs/CORPUS.md]). Sessions are
          keyed by the grammar file's content digest. *)

type op =
  | Check
  | Analyze
  | Translate of tenant
  | Update of tenant  (** incremental re-translation *)

type job = {
  j_id : string;
  j_op : op;
  j_file : string;  (** input path, resolved against the process cwd *)
  j_source : string option;
      (** inline input text. When present the job never reads [j_file] —
          the path is kept purely as the job's label (ids, outcome
          records, doc identity), so a job shipped to a worker host that
          has no copy of the input file runs there and still reports
          byte-identical outcomes. The distributed coordinator inlines
          every job's input this way (see [docs/FABRIC.md]). *)
  j_doc : string option;
      (** document identity for [Update] — updates sharing a doc share
          incremental state; defaults to [j_file] *)
  j_store : string;  (** APT store name (registry of {!Lg_apt.Store_registry}) *)
  j_page_size : int option;
  j_faults : Lg_apt.Apt_store.fault_spec option;
  j_depth_budget : int option;
  j_node_budget : int option;
  j_deadline : float option;
      (** per-job wall-clock budget (seconds); overrides the run
          default. Over budget ⇒ the job fails with
          {!Server_error.Deadline_exceeded} (exit 50). *)
}

val version : int
(** 1 — bumped only on incompatible change. *)

val make :
  ?id:string ->
  ?source:string ->
  ?doc:string ->
  ?store:string ->
  ?page_size:int ->
  ?faults:Lg_apt.Apt_store.fault_spec ->
  ?depth_budget:int ->
  ?node_budget:int ->
  ?deadline:float ->
  op:op ->
  file:string ->
  unit ->
  job
(** A job with the documented defaults ([id] defaults to [""] and is
    assigned positionally by {!parse}/{!to_json} consumers that need
    one). *)

val op_name : op -> string

val job_to_json : job -> Lg_support.Json_out.t
(** One job as its jobfile-entry document — what a [serve] client (and
    the fabric coordinator) embeds as a request's ["job"] member.
    Round-trips through {!job_of_json}. *)

val job_of_json : index:int -> Lg_support.Json_out.t -> (job, string) result
(** One job object ([index] names an id-less job); the element codec of
    {!parse}, exposed for the socket protocol's ["job"] requests. *)

val parse : string -> (job list, string) result
(** Parse a jobfile document. *)

val parse_file : string -> (job list, string) result

val to_json : job list -> Lg_support.Json_out.t
val to_string : ?pretty:bool -> job list -> string
