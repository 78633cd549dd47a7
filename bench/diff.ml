(* The benchmark regression gate: compare two JSON documents — run
   manifests (--report) or the harness's BENCH_*.json tables — and exit
   non-zero when HEAD regressed against BASE.

     bench/main.exe -- diff BASE.json HEAD.json [--tolerance NAME=PCT]...

   Both documents are flattened to dotted paths ("grammar.symbols",
   "metrics.apt.bytes_read", "stores[2].io.pages_read"), then every
   leaf is classified:

   - time-like keys (wall clock, modeled seconds, throughput, the
     overlay table) are informational only — they vary across machines,
     so CI cannot gate on them;
   - the grammar/plan/subsumption/attributes sections of a manifest
     must match exactly: they are facts about the translation, and any
     drift is a behavior change;
   - hit counters (keys ending in "_hits": pool and read-ahead hits) are
     informational: they count lookups, whose number depends on how a
     decoder splits its reads, and the cost they stand for is gated by
     the misses, seeks and bytes next to them;
   - ratios (keys ending in "_ratio", such as the compression ratio) get
     better as they rise: HEAD regresses when it falls below BASE by
     more than the tolerance;
   - every other numeric leaf is a work counter, where more is worse:
     HEAD regresses when it exceeds BASE by more than the tolerance
     (default 10%, overridable per key with --tolerance NAME=PCT);
   - a numeric leaf present in BASE but missing from HEAD, or whose
     HEAD value is no longer a number, is a regression (the metric
     silently disappeared or changed kind); new-in-HEAD leaves are
     informational.

   Exit status: 0 when nothing regressed, 1 otherwise. *)

open Lg_support

let default_tolerance_pct = 10.0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let join prefix key = if prefix = "" then key else prefix ^ "." ^ key

let rec flatten prefix j acc =
  match j with
  | Json_out.Obj members ->
      List.fold_left
        (fun acc (k, v) -> flatten (join prefix k) v acc)
        acc members
  | Json_out.Arr items ->
      List.fold_left
        (fun (acc, i) item ->
          (flatten (Printf.sprintf "%s[%d]" prefix i) item acc, i + 1))
        (acc, 0) items
      |> fst
  | leaf -> (prefix, leaf) :: acc

let flatten_doc j = List.rev (flatten "" j [])

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n > 0 && go 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let n = String.length suffix and m = String.length s in
  m >= n && String.sub s (m - n) n = suffix

(* Lookup counts: informational, never gated. *)
let is_hit_count key = ends_with ~suffix:"_hits" key

(* Ratios get better as they rise: a drop is the regression. *)
let is_higher_better key = ends_with ~suffix:"_ratio" key

(* Wall-clock and throughput leaves: never gate on them. *)
let is_time_like key =
  contains ~sub:"seconds" key
  || contains ~sub:"_ms" key
  || contains ~sub:"elapsed" key
  || contains ~sub:"throughput" key
  || contains ~sub:"lines_per_minute" key
  || starts_with ~prefix:"overlays." key


(* Facts about the translation: exact match required. *)
let is_exact key =
  starts_with ~prefix:"grammar." key
  || starts_with ~prefix:"plan." key
  || starts_with ~prefix:"subsumption." key
  || starts_with ~prefix:"attributes." key
  || String.equal key "linguist_manifest"

(* Optional-subsystem series: published only when the workload exercises
   the subsystem (the delta-driven evaluator's [incremental.*] counters in
   a metrics snapshot). They appear and disappear with the workload mix,
   so both directions — new in HEAD, or in BASE but absent from HEAD —
   are informational, never a gate failure. *)
let is_optional key = contains ~sub:"incremental." key

(* Context, not measurement: ignore entirely. *)
let is_ignored key =
  List.mem key [ "file"; "command"; "workload" ]
  || starts_with ~prefix:"store.dir" key

let leaf_string = function
  | Json_out.Null -> "null"
  | Json_out.Bool b -> string_of_bool b
  | Json_out.Num f -> Json_out.number f
  | Json_out.Str s -> s
  | j -> Json_out.to_string j

type verdict = { mutable regressions : int; mutable checked : int }

let parse_tolerances args =
  let tolerances = Hashtbl.create 8 in
  let rec go = function
    | [] -> Ok []
    | "--tolerance" :: spec :: rest -> (
        match String.index_opt spec '=' with
        | Some i -> (
            let name = String.sub spec 0 i in
            let pct = String.sub spec (i + 1) (String.length spec - i - 1) in
            match float_of_string_opt pct with
            | Some p ->
                Hashtbl.replace tolerances name p;
                go rest
            | None ->
                Error
                  (Printf.sprintf "--tolerance %s: %S is not a percentage"
                     spec pct))
        | None ->
            Error
              (Printf.sprintf
                 "--tolerance expects NAME=PCT (got %S)" spec))
    | "--tolerance" :: [] -> Error "--tolerance expects NAME=PCT"
    | a :: rest -> Result.map (fun l -> a :: l) (go rest)
  in
  (go args, tolerances)

let compare_docs ~tolerances base head =
  let v = { regressions = 0; checked = 0 } in
  let regress fmt =
    Printf.ksprintf
      (fun msg ->
        v.regressions <- v.regressions + 1;
        Printf.printf "REGRESSION  %s\n" msg)
      fmt
  in
  let base_leaves = flatten_doc base in
  let head_leaves = flatten_doc head in
  let head_tbl = Hashtbl.create 64 in
  List.iter (fun (k, leaf) -> Hashtbl.replace head_tbl k leaf) head_leaves;
  List.iter
    (fun (key, b) ->
      if is_optional key && not (Hashtbl.mem head_tbl key) then
        Printf.printf "gone        %-44s %s (optional series, not gated)\n"
          key (leaf_string b)
      else if
        not
          (is_ignored key || is_time_like key || is_hit_count key
         || is_optional key)
      then begin
        v.checked <- v.checked + 1;
        match Hashtbl.find_opt head_tbl key with
        | None -> regress "%-44s present in BASE, missing from HEAD" key
        | Some h when is_exact key ->
            if b <> h then
              regress "%-44s %s -> %s (must match exactly)" key
                (leaf_string b) (leaf_string h)
        | Some (Json_out.Num hf) -> (
            match b with
            | Json_out.Num bf ->
                let tol =
                  match Hashtbl.find_opt tolerances key with
                  | Some t -> t
                  | None -> default_tolerance_pct
                in
                let worse =
                  if is_higher_better key then
                    hf < bf *. (1.0 -. (tol /. 100.0))
                  else hf > bf *. (1.0 +. (tol /. 100.0)) && hf -. bf > 0.5
                in
                if worse then
                  regress "%-44s %s -> %s (%+.1f%%, tolerance %.0f%%)" key
                    (Json_out.number bf) (Json_out.number hf)
                    (100.0 *. (hf -. bf) /. Float.max 1e-9 (Float.abs bf))
                    tol
            | _ ->
                regress "%-44s changed kind: %s -> %s" key (leaf_string b)
                  (Json_out.number hf))
        | Some h -> (
            match b with
            | Json_out.Num _ ->
                (* a gated counter must not silently become null/str/bool:
                   losing its kind is as bad as losing the leaf *)
                regress "%-44s changed kind: %s -> %s" key (leaf_string b)
                  (leaf_string h)
            | _ ->
                (* non-numeric outside the exact sections: informational *)
                if b <> h then
                  Printf.printf "changed     %-44s %s -> %s\n" key
                    (leaf_string b) (leaf_string h))
      end)
    base_leaves;
  List.iter
    (fun (key, h) ->
      if (not (is_ignored key)) && not (List.mem_assoc key base_leaves) then
        Printf.printf "new         %-44s %s%s\n" key (leaf_string h)
          (if is_optional key then " (optional series, not gated)" else ""))
    head_leaves;
  v

let main args =
  let rest, tolerances = parse_tolerances args in
  match rest with
  | Error msg ->
      prerr_endline msg;
      2
  | Ok [ base_path; head_path ] -> (
      match
        ( Json_out.parse (read_file base_path),
          Json_out.parse (read_file head_path) )
      with
      | base, head ->
          let v = compare_docs ~tolerances base head in
          Printf.printf "diff: %d leaves checked, %d regression%s (%s vs %s)\n"
            v.checked v.regressions
            (if v.regressions = 1 then "" else "s")
            base_path head_path;
          if v.regressions = 0 then 0 else 1
      | exception Failure msg ->
          prerr_endline msg;
          2
      | exception Sys_error msg ->
          prerr_endline msg;
          2)
  | Ok _ ->
      prerr_endline
        "usage: main.exe -- diff BASE.json HEAD.json [--tolerance NAME=PCT]...";
      2
