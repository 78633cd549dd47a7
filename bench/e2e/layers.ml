(* Per-layer numbers from the spans the program already records.

   A tracer lists closed spans in completion order, children before
   their parent, each with its nesting depth. Absorbed per-job and
   per-request tracers arrive as contiguous blocks, so the span trees
   can be rebuilt from that order alone, even when jobs ran
   concurrently. A layer's self time is its span's duration minus the
   part of that interval its children cover. *)

module T = Lg_support.Trace
open Common

type node = { sp : T.span; self : float; kids : node list }

(* Length of the union of [(start, stop)] intervals clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) ivs
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let make sp kids =
  let lo = sp.T.sp_start in
  let hi = lo +. sp.T.sp_dur in
  let cover =
    covered ~lo ~hi
      (List.map (fun k -> (k.sp.T.sp_start, k.sp.T.sp_start +. k.sp.T.sp_dur)) kids)
  in
  { sp; self = Float.max 0.0 (sp.T.sp_dur -. cover); kids }

(* Rebuild the span trees; roots come back in completion order. *)
let forest spans =
  let pending =
    List.fold_left
      (fun pending sp ->
        let rec take kids = function
          | n :: rest when n.sp.T.sp_depth > sp.T.sp_depth -> take (n :: kids) rest
          | rest -> (kids, rest)
        in
        let kids, rest = take [] pending in
        make sp kids :: rest)
      [] spans
  in
  List.rev pending

(* The spans recorded past a [T.span_count] mark, as flat tree nodes. *)
let since tr mark =
  let spans = List.filteri (fun i _ -> i >= mark) (T.spans tr) in
  let rec flat acc n = List.fold_left flat (n :: acc) n.kids in
  List.fold_left flat [] (forest spans)

let all tr = since tr 0

let named nodes name =
  List.filter (fun n -> String.equal n.sp.T.sp_name name) nodes

(* Every node inside the subtrees of the spans called [name]. *)
let under nodes name =
  let rec flat acc n = List.fold_left flat (n :: acc) n.kids in
  List.fold_left (fun acc n -> List.fold_left flat acc n.kids) [] (named nodes name)

let by_cat nodes cat = List.filter (fun n -> String.equal n.sp.T.sp_cat cat) nodes

(* The serve front-end's per-request root spans, [request:<op>]. *)
let requests nodes =
  List.filter
    (fun n -> String.starts_with ~prefix:"request:" n.sp.T.sp_name)
    (by_cat nodes "request")

let durations nodes name = List.map (fun n -> n.sp.T.sp_dur) (named nodes name)

(* A mean per occurrence, in milliseconds; 0 when nothing occurred. *)
let mean_ms name xs =
  metric ~samples:(List.length xs) name "ms" (1e3 *. ratio (sum xs) (float_of_int (List.length xs)))

(* ---------- layer shares ---------- *)

(* Span categories grouped into the layers the shares report. *)
let layer_of_cat = function
  | "driver" | "overlay" | "tables" | "session" -> "build"
  | "engine" | "pass" -> "engine"
  | "incremental" -> "incr"
  | "queue" -> "queue"
  | "serve" | "chaos" -> "service"
  | "request" -> "request"
  | "job" -> "job"
  | "front" -> "front"
  | _ -> "bench"

let share_layers =
  [ "build"; "front"; "engine"; "incr"; "queue"; "service"; "request";
    "transport"; "job"; "idle" ]

(* Each layer's share of all self time in [nodes] plus the [extra]
   (layer, seconds) time the bench measured outside any span. Time in
   spans of no listed layer stays in the denominator. *)
let shares nodes ~extra =
  let tbl = Hashtbl.create 16 in
  let add layer s =
    Hashtbl.replace tbl layer (s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl layer))
  in
  List.iter (fun n -> add (layer_of_cat n.sp.T.sp_cat) n.self) nodes;
  List.iter (fun (layer, s) -> add layer s) extra;
  let total = Hashtbl.fold (fun _ s acc -> acc +. s) tbl 0.0 in
  List.map
    (fun layer ->
      metric
        ("layer." ^ layer ^ "_share")
        "ratio"
        (ratio (Option.value ~default:0.0 (Hashtbl.find_opt tbl layer)) total))
    share_layers

(* ---------- the layer metrics every workload reports ---------- *)

(* Counter totals of a tracer; subtract two snapshots to isolate the
   timed phase. *)
let counter tr name = Option.value ~default:0 (List.assoc_opt name (T.counters tr))

type counts = { rules : int; moves : int; bytes : int }

let counts tracers =
  List.fold_left
    (fun c tr ->
      {
        rules = c.rules + counter tr "rules_evaluated";
        moves = c.moves + counter tr "global_moves";
        bytes = c.bytes + counter tr "apt_bytes_moved";
      })
    { rules = 0; moves = 0; bytes = 0 }
    tracers

let diff a b = { rules = a.rules - b.rules; moves = a.moves - b.moves; bytes = a.bytes - b.bytes }

(* Scan+parse times of a workload's translate inputs, taken by the bench
   after its timed phase where no span separates the front end. *)
let front_probe inputs =
  List.map
    (fun (t, text) ->
      let diag = Lg_support.Diag.create () in
      let t0 = now () in
      let tree = Linguist.Translator.tree_of_source t ~file:"<probe>" ~diag text in
      let dt = now () -. t0 in
      let size = match tree with Some tr -> Lg_apt.Tree.size tr | None -> 0 in
      (dt, size))
    inputs

(* The per-layer metrics shared by all workloads. Times are means per
   occurrence: span clocks tick in microseconds, and a mean over many
   spans keeps its digits where a median of a few could repeat exactly.
   [all_nodes]: every span of the run, set-up included (builds are rare
   in timed phases, so their means draw on set-up too); [timed]: the
   timed phase's spans; [front]: (seconds, APT nodes) per scan+parse;
   [ops]: operations completed in the timed phase. *)
let common ~all_nodes ~timed ~front ~ops ~delta ~busy_frac ~traced_ops_per_s
    ~extra =
  let per_op x = ratio (float_of_int x) (float_of_int ops) in
  let builds = named timed "session.build" and hits = named timed "session.hit" in
  let overlay name =
    mean_ms
      ("overlay." ^ name ^ "_ms")
      (List.filter_map
         (fun n -> if n.sp.T.sp_cat = "overlay" && n.sp.T.sp_name = name then Some n.self else None)
         all_nodes)
  in
  let runs = durations timed "engine.run" in
  let passes =
    List.map
      (fun n ->
        sum
          (List.filter_map
             (fun k ->
               if k.sp.T.sp_cat = "pass" && k.sp.T.sp_name <> "linearize" then Some k.sp.T.sp_dur
               else None)
             n.kids))
      (named timed "engine.run")
  in
  let front_nodes = List.fold_left (fun a (_, n) -> a + n) 0 front in
  let count name = float_of_int (List.length (named timed name)) in
  [
    mean_ms "session.build_ms"
      (durations all_nodes "session.build" @ durations all_nodes "translator.build");
    overlay "parse";
    overlay "semantic";
    overlay "evaluability";
    overlay "planning";
    mean_ms "lalr.build_ms" (durations all_nodes "lalr.build");
    mean_ms "scanner.compile_ms" (durations all_nodes "scanner.compile");
    mean_ms "front.scan_parse_ms" (List.map fst front);
    metric "front.nodes_per_ms" "nodes/ms"
      (ratio (float_of_int front_nodes) (1e3 *. sum (List.map fst front)));
    mean_ms "engine.run_ms" runs;
    mean_ms "engine.linearize_ms" (durations timed "linearize");
    mean_ms "engine.passes_ms" passes;
    metric "engine.rules_per_ms" "rules/ms" (ratio (float_of_int delta.rules) (1e3 *. sum runs));
    metric "engine.rules_per_op" "count" (per_op delta.rules);
    metric "engine.global_moves_per_op" "count" (per_op delta.moves);
    metric "apt.bytes_moved_per_op" "bytes" (per_op delta.bytes);
    metric "session.builds_per_op" "count" (per_op (List.length builds));
    metric "session.hit_ratio" "ratio"
      (ratio (float_of_int (List.length hits)) (float_of_int (List.length hits + List.length builds)));
    metric "incr.fallback_frac" "ratio"
      (ratio (count "incremental.fallback") (count "incremental.update"));
    metric "pool.busy_frac" "ratio" busy_frac;
    metric "trace.ops_per_s" "ops/s" traced_ops_per_s;
  ]
  @ shares timed ~extra
