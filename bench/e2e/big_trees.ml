(* big-trees: library [Translator.translate] in a closed loop, one caller,
   warm translators, over six large inputs. Most of the timed phase is
   the evaluator's pass loop and the rest is scan+parse; session build
   happens only in set-up, so serving and cache changes should leave
   this workload's timed phase flat. *)

open Common
module Tr = Linguist.Translator
module T = Lg_support.Trace

type input = { label : string; tr : Tr.t; text : string }

let build f = T.span (T.ambient ()) ~cat:"session" "translator.build" f

(* A sentence of the xl grammar, in the symbolic scanner's
   whitespace-separated terminal names. Most draws stop after a handful
   of tokens whatever the size budget, so derived seeds are tried until
   one reaches [min_tokens]. Like the grammar, it is drawn from seed 1
   on every run: the search's length varies from seed to seed, and the
   set-up and the small input then cost the same on every seed. *)
let xl_sentence t ~min_tokens =
  let seed = 1 in
  let cfg = Linguist.Ir.to_cfg (Tr.ir t) in
  let analysis = Lg_grammar.Analysis.compute cfg in
  let draw k =
    let rng = Lg_corpus.Prng.fn (Lg_corpus.Prng.create (Lg_corpus.Prng.derive seed k)) in
    Lg_grammar.Sentence_gen.sentence cfg analysis ~rng ~size:500
  in
  let rec go k best =
    let ts = draw k in
    let best = if List.length ts > List.length best then ts else best in
    if List.length best >= min_tokens || k >= 1000 then best else go (k + 1) best
  in
  go 0 [] |> List.map (Lg_grammar.Cfg.terminal_name cfg) |> String.concat " "

(* Sizes are fixed; the seed only picks content. *)
let sizes s =
  if s.smoke then ([ 20; 30 ], [ 40; 60 ]) else ([ 100; 200 ], [ 400; 800 ])

let setup s () =
  let linguist = build Lg_languages.Linguist_ag.translator in
  let pascal = build Lg_languages.Pascal_ag.translator in
  let xl =
    build (fun () ->
        let g =
          Lg_corpus.Corpus_gen.(generate ~name:"xl" (config_of_profile Xl) ~seed:1)
        in
        match Tr.of_source ~ag_source:g.Lg_corpus.Corpus_gen.g_source ~file:"xl.ag" () with
        | Ok t -> t
        | Error _ -> failwith "big-trees: the xl grammar does not build")
  in
  let derive = Lg_corpus.Prng.derive s.seed in
  let ags, pascals = sizes s in
  let inputs =
    Array.of_list
      (({ label = "linguist.ag"; tr = linguist; text = Lg_languages.Linguist_ag.ag_source }
       :: List.mapi
            (fun i n ->
              { label = Printf.sprintf "ag-%d" n; tr = linguist;
                text = Gen.ag ~seed:(derive i) n })
            ags)
      @ List.mapi
          (fun i n ->
            { label = Printf.sprintf "pascal-%d" n; tr = pascal;
              text = Gen.pascal ~seed:(derive (10 + i)) n })
          pascals
      @ [ { label = "xl-sentence"; tr = xl; text = xl_sentence xl ~min_tokens:300 } ])
  in
  (* warm-up: one translation each, so the timed phase starts on a
     grown heap *)
  Array.iter (fun i -> ignore (Tr.translate_exn i.tr ~file:i.label i.text)) inputs;
  inputs

(* One translation: its outputs and, when traced, the scan+parse
   seconds. Traced runs call the front end and the evaluator
   separately so that their two timings add up to the translation. *)
let translate ~traced input =
  if traced then begin
    let diag = Lg_support.Diag.create () in
    let t0 = now () in
    let tree =
      T.span (T.ambient ()) ~cat:"front" "front.scan_parse" (fun () ->
          Tr.tree_of_source input.tr ~file:input.label ~diag input.text)
    in
    let front = now () -. t0 in
    match tree with
    | None -> (None, front)
    | Some tree -> (
        match Linguist.Engine.run (Tr.plan input.tr) tree with
        | r -> (Some r.Linguist.Engine.outputs, front)
        | exception Linguist.Engine.Evaluation_error _ -> (None, front))
  end
  else
    match Tr.translate input.tr ~file:input.label input.text with
    | Ok t -> (Some t.Tr.outputs, 0.0)
    | Error _ -> (None, 0.0)

let tree_size input =
  let diag = Lg_support.Diag.create () in
  match Tr.tree_of_source input.tr ~file:input.label ~diag input.text with
  | Some t -> Lg_apt.Tree.size t
  | None -> 0

let oracle input =
  let diag = Lg_support.Diag.create () in
  Option.map
    (fun tree -> (Linguist.Demand.evaluate (Tr.ir input.tr) tree).Linguist.Demand.outputs)
    (Tr.tree_of_source input.tr ~file:input.label ~diag input.text)

let run s =
  let tracer = if s.traced then T.create () else T.null in
  T.install tracer;
  let inputs, setup_s =
    repeated_setup ~reps:(setup_reps s) ~build:(setup s) ~dispose:ignore
  in
  let n = Array.length inputs in
  (* A round is a seeded permutation of every input plus the small one
     again. Whole rounds keep the mix exact, and with seven slots the
     median and p95 fall inside one input's latency mode rather than in
     the gap between two. *)
  let round = Array.append (Array.init n Fun.id) [| n - 1 |] in
  let rng = Gen.stream s.seed 7 in
  let mark = T.span_count tracer in
  let counts0 = Layers.counts [ tracer ] in
  (* per op: input index, latency, scan+parse seconds, and whether its
     outputs equal the first outputs of its input. Only those first
     outputs are kept, so past translations do not add to peak_rss_mb. *)
  let first = Array.make n None in
  let ops = ref [] in
  let walls = ref [] in
  each_round s ~nominal:0.45 (fun () ->
    let t_round = now () in
    let results = ref [] in
    Array.iter
      (fun i ->
        let t0 = now () in
        let out, front = translate ~traced:s.traced inputs.(i) in
        results := (i, now () -. t0, front, out) :: !results)
      (Gen.shuffle rng round);
    walls := (now () -. t_round) :: !walls;
    List.iter
      (fun (i, latency, front, out) ->
        let same =
          match (out, first.(i)) with
          | Some o, None ->
              first.(i) <- Some o;
              true
          | Some o, Some f -> outputs_equal o f
          | None, _ -> false
        in
        ops := (i, latency, front, same) :: !ops)
      (List.rev !results));
  let wall = sum !walls in
  let delta = Layers.diff (Layers.counts [ tracer ]) counts0 in
  T.install T.null;
  let ops = List.rev !ops in
  let latencies = List.map (fun (_, l, _, _) -> l) ops in
  let n_ops = List.length ops in
  (* every translation must match the demand-driven oracle for its
     input, computed after the timed phase: the first one directly, the
     others through their equality with the first *)
  let right =
    Array.mapi
      (fun i f ->
        match (f, oracle inputs.(i)) with
        | Some o, Some r -> outputs_equal o r
        | _ -> false)
      first
  in
  let failed = List.length (List.filter (fun (i, _, _, same) -> not (same && right.(i))) ops) in
  let ops_per_s = median_rate ~per_round:(Array.length round) !walls in
  let e2e =
    [ metric "setup_s" "s" setup_s; metric "ops_per_s" "ops/s" ops_per_s ]
    @ latency_metrics "latency" latencies
  in
  let layers =
    if not s.traced then []
    else
      let sizes = Array.map tree_size inputs in
      let timed = Layers.since tracer mark in
      let fronts = List.map (fun (_, _, f, _) -> f) ops in
      (* the share of translation latency the two timed calls cover *)
      metric "trace.accounted_frac" "ratio"
        (ratio (sum fronts +. sum (Layers.durations timed "engine.run")) (sum latencies))
      :: Layers.common ~all_nodes:(Layers.all tracer) ~timed
           ~front:(List.map (fun (i, _, f, _) -> (f, sizes.(i))) ops)
           ~ops:n_ops ~delta
           ~busy_frac:(ratio (sum latencies) wall)
           ~traced_ops_per_s:ops_per_s ~extra:[]
  in
  { attempted = n_ops; failed; metrics = e2e; layers; tracers = [ tracer ] }
