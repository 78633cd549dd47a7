(* cold-tenants: the seeded default corpus (20 small grammar tenants x 10
   inputs) through [Batch.run ~workers:2], alternating with
   [Batch.run_sequential] on the same jobs. Every round starts from a
   fresh 8-slot session cache, so most lookups miss and the timed phase
   is mostly session build: build, cache and pool changes show here,
   and evaluator changes should not.

   The corpus's [update] jobs are left out. They run [Incr], whose
   per-node state is keyed by tree node ids, and those ids come from a
   global counter that concurrent parses can re-issue: about one pooled
   update in 5,000 failed. The other 158 jobs never read node ids. *)

open Common
module T = Lg_support.Trace
module Emit = Lg_corpus.Emit
module Session = Lg_server.Session

let workers = 2

let spec s =
  if s.smoke then { Emit.default with Emit.s_seed = s.seed; s_grammars = 4; s_inputs = 3 }
  else { Emit.default with Emit.s_seed = s.seed }

(* The corpus is laid out in "corpus/" and the round runs there: its
   jobfile paths are relative to the corpus root. *)
let setup s () =
  let corpus = Emit.write ~dir:"corpus" (spec s) in
  Sys.chdir "corpus";
  let jobs =
    List.filter
      (fun (j : Lg_server.Jobfile.job) ->
        match j.Lg_server.Jobfile.j_op with Lg_server.Jobfile.Update _ -> false | _ -> true)
      corpus.Emit.c_jobs
  in
  (* warm-up round *)
  ignore (Batch.run ~workers ~sessions:(Session.create_cache ()) jobs);
  (corpus, jobs)

let dispose _ =
  Sys.chdir "..";
  rm_rf "corpus"

(* What a round leaves behind: only times and counts outlive it, so the
   outputs and sessions of past rounds do not add to peak_rss_mb. *)
type round = {
  wall : float;
  job_seconds : float list;  (** [o_seconds] of every job *)
  evictions : int;
}

(* One round and its summary, which the caller checks and drops. *)
let round ~tracer ~pooled jobs =
  let cache = Session.create_cache () in
  let name = if pooled then "round.pooled" else "round.sequential" in
  let t0 = now () in
  let summary =
    T.span tracer ~cat:"bench" name (fun () ->
        if pooled then Batch.run ~workers ~sessions:cache ~tracer jobs
        else Batch.run_sequential ~sessions:cache ~tracer jobs)
  in
  let wall = now () -. t0 in
  ( { wall;
      job_seconds = List.map (fun o -> o.Batch.o_seconds) summary.Batch.outcomes;
      evictions = fst (Session.eviction_stats cache) },
    summary )

let run s =
  let tracer = if s.traced then T.create () else T.null in
  (* the sequential side traces into its own tracer, so the pooled
     layer split stays clean and the two can be set side by side *)
  let seq_tracer = if s.traced then T.create () else T.null in
  T.install tracer;
  let (corpus, jobs), setup_s = repeated_setup ~reps:(setup_reps s) ~build:(setup s) ~dispose in
  let n_jobs = List.length jobs in
  let mark = T.span_count tracer in
  let counts0 = Layers.counts [ tracer ] in
  let key = digest_key ~workload:"cold-tenants" s in
  let pooled = ref [] and sequential = ref [] and failed = ref 0 in
  each_round s ~nominal:1.0 (fun () ->
    let p, p_summary = round ~tracer ~pooled:true jobs in
    let q, q_summary = round ~tracer:seq_tracer ~pooled:false jobs in
    (* pooled must be byte-identical to sequential, and both to the
       committed digest where one exists *)
    failed := !failed + batch_failures ~want:q_summary p_summary;
    failed := !failed + batch_failures ~want:q_summary q_summary;
    if not (check_digest key (batch_digest q_summary)) then failed := !failed + n_jobs;
    pooled := p :: !pooled;
    sequential := q :: !sequential);
  let delta = Layers.diff (Layers.counts [ tracer ]) counts0 in
  T.install T.null;
  let rounds = List.length !pooled in
  let walls l = List.map (fun r -> r.wall) l in
  let rate l = median_rate ~per_round:n_jobs (walls l) in
  let ops_per_s = rate !pooled in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "ops_per_s" "ops/s" ops_per_s;
      metric "seq_ops_per_s" "ops/s" (rate !sequential);
    ]
  in
  let job_seconds = List.concat_map (fun r -> r.job_seconds) !pooled in
  let evictions = List.fold_left (fun n r -> n + r.evictions) 0 !pooled in
  let extra =
    [
      metric ~samples:(List.length job_seconds) "batch.job_p50_ms" "ms"
        (1e3 *. median job_seconds);
      metric "session.evictions_per_op" "count"
        (ratio (float_of_int evictions) (float_of_int (n_jobs * rounds)));
    ]
  in
  let layers =
    if not s.traced then []
    else
      let timed = Layers.under (Layers.since tracer mark) "round.pooled" in
      let busy = sum (List.map (fun n -> n.Layers.sp.T.sp_dur) (Layers.by_cat timed "job")) in
      let capacity = float_of_int workers *. sum (walls !pooled) in
      let translators = List.map corpus_translator corpus.Emit.c_built in
      let spec = corpus.Emit.c_spec in
      let front =
        Layers.front_probe
          (List.concat
             (List.mapi
                (fun i t ->
                  List.init spec.Emit.s_inputs (fun k -> (t, read_file (Emit.input_rel i k))))
                translators))
      in
      let seq = Layers.all seq_tracer in
      Layers.mean_ms "seq.session.build_ms" (Layers.durations seq "session.build")
      :: Layers.mean_ms "seq.engine.run_ms" (Layers.durations seq "engine.run")
      :: Layers.common ~all_nodes:(Layers.all tracer) ~timed ~front
          ~ops:(n_jobs * rounds) ~delta ~busy_frac:(ratio busy capacity)
          ~traced_ops_per_s:ops_per_s
          ~extra:[ ("idle", Float.max 0.0 (capacity -. busy)) ]
  in
  {
    attempted = 2 * n_jobs * rounds;
    failed = !failed;
    metrics = e2e @ extra;
    layers;
    tracers = [ tracer; seq_tracer ];
  }
