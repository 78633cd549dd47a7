(* Corpus materialization: grammars, input fleets, and a multi-tenant
   jobfile, laid out under one directory.

   Everything in the layout is derived from the spec seed through
   {!Prng.derive} sub-streams, and every path inside [jobs.json] is
   relative to the corpus root — two [write]s of the same spec are
   byte-identical file trees wherever they land, which is what the
   determinism test and the committed bench baseline lean on. Run the
   jobfile with the corpus root as working directory (jobfile paths
   resolve against the process cwd). *)

open Lg_server

type spec = {
  s_seed : int;
  s_grammars : int;
  s_profile : Corpus_gen.profile;
  s_inputs : int;  (** inputs per grammar *)
  s_input_size : int;  (** sentence size budget, tokens *)
  s_fault_every : int;  (** 0 = none; else every nth eligible job *)
}

let default =
  {
    s_seed = 1;
    s_grammars = 20;
    s_profile = Corpus_gen.Small;
    s_inputs = 10;
    s_input_size = 40;
    s_fault_every = 7;
  }

(* Per-grammar shape variation: the corpus should exercise contention
   across genuinely different tenants — strategies of both directions,
   pass counts from 1 up to the profile's, and staggered sizes — not
   twenty reseedings of one shape. *)
let vary (base : Corpus_gen.config) i =
  let flip = function
    | Corpus_gen.Bottom_up -> Corpus_gen.Recursive_descent
    | Corpus_gen.Recursive_descent -> Corpus_gen.Bottom_up
  in
  {
    base with
    Corpus_gen.nonterminals =
      base.Corpus_gen.nonterminals
      + i mod 3 * max 1 (base.Corpus_gen.nonterminals / 6);
    terminals = base.Corpus_gen.terminals + (i mod 2 * 2);
    passes = 1 + ((base.Corpus_gen.passes - 1 + i) mod base.Corpus_gen.passes);
    strategy =
      (if i mod 2 = 0 then base.Corpus_gen.strategy
       else flip base.Corpus_gen.strategy);
  }

let grammar_name i = Printf.sprintf "g%03d" i

let grammar_rel i = Filename.concat "grammars" (grammar_name i ^ ".ag")

let input_rel i k =
  Filename.concat
    (Filename.concat "inputs" (grammar_name i))
    (Printf.sprintf "i%02d.txt" k)

let grammars spec =
  let base = Corpus_gen.config_of_profile spec.s_profile in
  List.init spec.s_grammars (fun i ->
      Corpus_gen.generate ~name:(grammar_name i) (vary base i)
        ~seed:(Prng.derive spec.s_seed (2 * i)))

(* Input sub-seeds salted away from the grammar stream. *)
let input_seed spec i k = Prng.derive spec.s_seed (100_000 + (i * 1000) + k)

let jobs spec =
  let checks =
    List.concat
      (List.init spec.s_grammars (fun i ->
           Jobfile.make
             ~id:("check-" ^ grammar_name i)
             ~op:Jobfile.Check ~file:(grammar_rel i) ()
           ::
           (if i mod 5 = 0 then
              [
                Jobfile.make
                  ~id:("analyze-" ^ grammar_name i)
                  ~op:Jobfile.Analyze ~file:(grammar_rel i) ();
              ]
            else [])))
  in
  let translations = ref [] in
  let n_eligible = ref 0 in
  (* inputs outer, grammars inner: adjacent jobs hit different tenants,
     so a pooled run contends on the session cache instead of handing
     each worker a private grammar *)
  for k = 0 to spec.s_inputs - 1 do
    for i = 0 to spec.s_grammars - 1 do
      let tenant = Jobfile.Grammar (grammar_rel i) in
      let store = if (i + k) mod 3 = 0 then "mem" else "paged" in
      let faulty =
        spec.s_fault_every > 0
        && (not (String.equal store "mem"))
        && (incr n_eligible;
            !n_eligible mod spec.s_fault_every = 0)
      in
      let faults =
        if faulty then
          Some
            {
              Lg_apt.Apt_store.f_seed = Prng.derive spec.s_seed (500_000 + !n_eligible);
              f_rate = 0.05;
              (* read-side only: transient faults are absorbed by pager
                 retries, so outputs stay deterministic *)
              f_kinds = [ Lg_apt.Apt_store.Transient_io ];
            }
        else None
      in
      let job =
        if (i + k) mod 3 = 2 then
          Jobfile.make
            ~id:(Printf.sprintf "u-%s-i%02d" (grammar_name i) k)
            ~doc:(grammar_name i ^ ".doc")
            ~store ?faults
            ~op:(Jobfile.Update tenant)
            ~file:(input_rel i k) ()
        else
          Jobfile.make
            ~id:(Printf.sprintf "t-%s-i%02d" (grammar_name i) k)
            ~store ?faults
            ~op:(Jobfile.Translate tenant)
            ~file:(input_rel i k) ()
      in
      translations := job :: !translations
    done
  done;
  checks @ List.rev !translations

type corpus = {
  c_dir : string;
  c_spec : spec;
  c_built : Corpus_gen.built list;
  c_jobs : Jobfile.job list;
  c_jobfile : string;  (** absolute path of [jobs.json] *)
}

let mkdir_p dir =
  let rec mk d =
    if not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let write ~dir spec =
  mkdir_p (Filename.concat dir "grammars");
  let built =
    List.mapi
      (fun i g ->
        write_file (Filename.concat dir (grammar_rel i)) g.Corpus_gen.g_source;
        let b = Corpus_gen.build_exn g in
        mkdir_p (Filename.concat dir (Filename.dirname (input_rel i 0)));
        for k = 0 to spec.s_inputs - 1 do
          write_file
            (Filename.concat dir (input_rel i k))
            (Corpus_gen.sentence b ~seed:(input_seed spec i k)
               ~size:spec.s_input_size)
        done;
        b)
      (grammars spec)
  in
  let jobs = jobs spec in
  let jobfile = Filename.concat dir "jobs.json" in
  write_file jobfile (Jobfile.to_string ~pretty:true jobs);
  { c_dir = dir; c_spec = spec; c_built = built; c_jobs = jobs; c_jobfile = jobfile }
