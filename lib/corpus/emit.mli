(** Corpus materialization: a directory of generated grammars, seeded
    input fleets, and one multi-tenant [linguist_jobs:1] jobfile.

    The layout under the corpus root:

    {v
    grammars/g000.ag ...     one generated grammar per tenant
    inputs/g000/i00.txt ...  sentence fleet per grammar
    jobs.json                check/analyze/translate/update mix
    v}

    Paths inside [jobs.json] are relative to the corpus root, so two
    {!write}s of one spec are byte-identical file trees — run the
    jobfile with the corpus root as the working directory. The job mix
    interleaves tenants (inputs outer, grammars inner), puts one job in
    three on the [mem] APT store and the rest on [paged], marks every
    third (grammar, input) pair an incremental ["update"] sharing a
    per-grammar doc, and gives every [s_fault_every]-th [paged] job a
    deterministic transient-read fault spec. *)

type spec = {
  s_seed : int;
  s_grammars : int;
  s_profile : Corpus_gen.profile;
  s_inputs : int;  (** inputs per grammar *)
  s_input_size : int;  (** sentence size budget, tokens *)
  s_fault_every : int;  (** 0 = none; else every nth eligible job *)
}

val default : spec
(** Seed 1: 20 small-profile grammars, 10 inputs each, faults on every
    7th [paged] job — the shape [bench 'corpus'] runs. *)

val vary : Corpus_gen.config -> int -> Corpus_gen.config
(** The per-grammar shape variation [grammars] applies: index-cycled
    sizes, pass counts 1..[passes], and alternating strategies. *)

val grammars : spec -> Corpus_gen.grammar list

val jobs : spec -> Lg_server.Jobfile.job list
(** The job list alone (what [write] puts in [jobs.json]). *)

val grammar_rel : int -> string
(** [grammars/gNNN.ag], relative to the corpus root. *)

val input_rel : int -> int -> string
(** [inputs/gNNN/iKK.txt], relative to the corpus root. *)

type corpus = {
  c_dir : string;
  c_spec : spec;
  c_built : Corpus_gen.built list;
  c_jobs : Lg_server.Jobfile.job list;
  c_jobfile : string;  (** absolute path of [jobs.json] *)
}

val write : dir:string -> spec -> corpus
(** Generate, build and lay out the whole corpus under [dir] (created
    if missing). Building is the expensive step; the returned
    {!Corpus_gen.built} list lets callers reuse the artifacts.
    @raise Failure if a generated grammar fails to build (a generator
    bug — corpus grammars are evaluable by construction). *)
