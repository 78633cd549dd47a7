(* Noise-aware comparison of two sets of recorded runs.

   Each side holds K runs per workload. For every (workload, metric)
   this prints both sides' median and quartiles and a verdict:

   - few runs: fewer than ten seeds ran on both sides (the traced runs
     of a sweep), too few for any verdict;
   - unresolved: a side's quartile spread exceeds the metric's bound,
     unless every run of one side reads better than every run of the
     other;
   - worse: the head median is worse than the base median by more than
     the bound (metrics without a bound: head loses 9 in 10 seed pairs
     and the medians differ by more than the base spread);
   - better: head wins at least 9 in 10 seed pairs and the medians
     differ by more than the base spread (and by more than 0.5%);
   - unchanged otherwise.

   Bounds and directions come from BENCHMARK.json; metrics it does not
   list are judged by their unit (rates are better higher, everything
   else lower, ratios are only reported). *)

module J = Lg_support.Json_out
open Common

type record = {
  workload : string;
  seed : int;
  traced : bool;
  values : (string * float) list;
  units : (string * string) list;
}

let record_of_json j =
  let metrics = match J.member "metrics" j with Some (J.Obj m) -> m | _ -> [] in
  {
    workload = J.to_str (J.member_exn "workload" j);
    seed = J.to_int (J.member_exn "seed" j);
    traced = J.member "traced" j = Some (J.Bool true);
    values = List.map (fun (k, v) -> (k, J.to_num (J.member_exn "value" v))) metrics;
    units = List.map (fun (k, v) -> (k, J.to_str (J.member_exn "unit" v))) metrics;
  }

let jsonl path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> record_of_json (J.parse l))

(* A run set: a directory of [*.jsonl] records, one [.jsonl] file, or a
   baseline file, whose sets [FILE#NAME] selects one of. *)
let load spec =
  let path, set =
    match String.index_opt spec '#' with
    | Some i -> (String.sub spec 0 i, Some (String.sub spec (i + 1) (String.length spec - i - 1)))
    | None -> (spec, None)
  in
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.concat_map (fun f -> jsonl (Filename.concat path f))
  else if Filename.check_suffix path ".jsonl" then jsonl path
  else
    let sets = match J.member "sets" (J.parse (read_file path)) with Some (J.Obj s) -> s | _ -> [] in
    List.concat_map
      (fun (name, runs) ->
        if set = None || set = Some name then List.map record_of_json (J.to_list runs) else [])
      sets

(* The quartiles Python's [statistics.quantiles(xs, n=4)] gives (its
   default "exclusive" method), so spreads read the same here as in
   any other tool that reports them. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type direction = Higher | Lower | Info

let direction_of_unit u =
  if u = "ratio" then Info
  else if String.contains u '/' then Higher
  else Lower

let verdict ~direction ~bound base head =
  let values rs = List.map snd rs in
  let q1b, mb, q3b = quartiles (values base) and q1h, mh, q3h = quartiles (values head) in
  let spread q1 m q3 = if m <> 0.0 then (q3 -. q1) /. Float.abs m else 0.0 in
  let better a b = match direction with Higher -> a > b | Lower -> a < b | Info -> false in
  let every side other = List.for_all (fun x -> List.for_all (fun y -> better x y) other) side in
  let pairs = List.filter_map (fun (seed, h) -> Option.map (fun b -> (h, b)) (List.assoc_opt seed base)) head in
  let share p =
    ratio (float_of_int (List.length (List.filter p pairs))) (float_of_int (List.length pairs))
  in
  let wins = share (fun (h, b) -> better h b) and losses = share (fun (h, b) -> better b h) in
  let clear = Float.abs (mh -. mb) > Float.max (q3b -. q1b) (0.005 *. Float.abs mb) in
  let worse_by =
    match direction with
    | Higher -> ratio (mb -. mh) (Float.abs mb)
    | Lower -> ratio (mh -. mb) (Float.abs mb)
    | Info -> 0.0
  in
  if direction = Info then "info"
  else if List.length pairs < 10 then "few runs"
  else
    match bound with
    | Some b when spread q1b mb q3b > b || spread q1h mh q3h > b ->
        if every (values head) (values base) then "better"
        else if every (values base) (values head) then "worse"
        else "unresolved"
    | Some b when worse_by > b -> "worse"
    | None when losses >= 0.9 && clear -> "worse"
    | _ when wins >= 0.9 && clear -> "better"
    | _ -> "unchanged"

let fmt v = Printf.sprintf "%.4g" v

(* [specs]: (name, higher is better, bound) for every metric
   BENCHMARK.json lists. Returns the number of gated regressions. *)
let main ~specs base_spec head_spec =
  let base = load base_spec and head = load head_spec in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (base @ head)) in
  let regressions = ref 0 in
  let median_of rs name =
    let xs = List.filter_map (fun r -> List.assoc_opt name r.values) rs in
    if xs = [] then nan else median xs
  in
  List.iter
    (fun w ->
      let side rs traced = List.filter (fun r -> r.workload = w && r.traced = traced) rs in
      Printf.printf "\n== %s (base %d runs, head %d runs; traced %d/%d)\n" w
        (List.length (side base false)) (List.length (side head false))
        (List.length (side base true)) (List.length (side head true));
      Printf.printf "%-28s %-9s %-30s %-30s %8s %6s  %s\n" "metric" "unit"
        "base median [q1, q3]" "head median [q1, q3]" "change" "bound" "verdict";
      List.iter
        (fun traced ->
          let b = side base traced and h = side head traced in
          let names =
            List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.values) (b @ h))
          in
          List.iter
            (fun name ->
              let pick rs = List.filter_map (fun r -> Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.values)) rs in
              let bv = pick b and hv = pick h in
              if bv <> [] && hv <> [] then begin
                let unit_ =
                  Option.value ~default:"" (List.assoc_opt name (List.hd (b @ h)).units)
                in
                let direction, bound =
                  match List.find_opt (fun (n, _, _) -> n = name) specs with
                  | Some (_, higher, bound) ->
                      ((if higher then Higher else Lower), if Float.is_nan bound then None else Some bound)
                  | None -> (direction_of_unit unit_, None)
                in
                let v = verdict ~direction ~bound bv hv in
                if v = "worse" && bound <> None then incr regressions;
                let show rs =
                  let q1, m, q3 = quartiles (List.map snd rs) in
                  Printf.sprintf "%s [%s, %s]" (fmt m) (fmt q1) (fmt q3)
                in
                let _, mb, _ = quartiles (List.map snd bv) and _, mh, _ = quartiles (List.map snd hv) in
                Printf.printf "%-28s %-9s %-30s %-30s %+7.1f%% %6s  %s\n" name unit_ (show bv)
                  (show hv)
                  (100.0 *. ratio (mh -. mb) (Float.abs mb))
                  (match bound with Some b -> Printf.sprintf "%g%%" (100.0 *. b) | None -> "-")
                  v
              end)
            names)
        [ false; true ];
      (* the carried ratios: they hold across hosts where absolute
         seconds do not *)
      let ratio_line label f =
        Printf.printf "%-28s base %s  head %s\n" label (fmt (f base)) (fmt (f head))
      in
      let ratio_of num den traced rs =
        let runs = side rs traced in
        median
          (List.filter_map
             (fun r ->
               match (List.assoc_opt num r.values, List.assoc_opt den r.values) with
               | Some a, Some b when b > 0.0 -> Some (a /. b)
               | _ -> None)
             runs)
      in
      if List.exists (fun r -> List.mem_assoc "seq_ops_per_s" r.values) (side base false @ side head false)
      then ratio_line "ratio ops/seq_ops" (ratio_of "ops_per_s" "seq_ops_per_s" false);
      ratio_line "trace.overhead_frac" (fun rs ->
          1.0 -. ratio (median_of (side rs true) "trace.ops_per_s") (median_of (side rs false) "ops_per_s")))
    workloads;
  !regressions
