(* The end-to-end and per-layer benchmark. See README.md.

     e2e.exe run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                 [--trace-out FILE] [--record FILE]
     e2e.exe smoke
     e2e.exe sweep FILE
     e2e.exe compare BASE HEAD

   [run] measures one workload in this process and prints every metric
   as [name value unit], then, as its last line, the JSON summary whose
   metrics are the ones BENCHMARK.json lists for the mode: end-to-end
   when untraced, per-layer when traced. It exits 1 when any output was
   wrong and 2 on a usage or set-up error. *)

open Common
module J = Lg_support.Json_out
module T = Lg_support.Trace

let workloads =
  [
    ("big-trees", Big_trees.run);
    ("cold-tenants", Cold_tenants.run);
    ("serve-edit", Serve_edit.run);
    ("fleet", Fleet.run);
  ]

let usage () =
  prerr_endline
    "usage: e2e.exe run --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \                   [--trace-out FILE] [--record FILE]\n\
    \       e2e.exe smoke\n\
    \       e2e.exe sweep FILE\n\
    \       e2e.exe compare BASE HEAD\n\
     common options: --benchmark FILE (default BENCHMARK.json),\n\
    \                --expected DIR (default bench/e2e/expected)";
  exit 2

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("e2e: " ^ msg); exit 2) fmt

let benchmark_file = ref "BENCHMARK.json"

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let benchmark () =
  try J.parse (read_file !benchmark_file)
  with Sys_error e | Failure e -> fail "cannot read %s: %s" !benchmark_file e

(* How long one run measures. *)
let run_seconds () =
  match J.member "run_seconds" (benchmark ()) with
  | Some n -> J.to_num n
  | None -> fail "%s has no run_seconds" !benchmark_file

(* (name, higher is better, bound) of every metric BENCHMARK.json
   lists, end-to-end first. *)
let read_benchmark () =
  let doc = benchmark () in
  let specs key =
    match J.member key doc with
    | Some (J.Arr items) ->
        List.map
          (fun m ->
            ( J.to_str (J.member_exn "name" m),
              J.to_str (J.member_exn "better" m) = "higher",
              match J.member "bound" m with Some b -> J.to_num b | None -> nan ))
          items
    | _ -> fail "%s has no %s list" !benchmark_file key
  in
  (specs "end_to_end", specs "per_layer")

(* ---------- run ---------- *)

(* A private working directory inside the current one: corpus files,
   sockets and the program's temporary APT files all land there, and
   it is removed on the way out. Paths stay relative, so socket names
   fit the platform's length limit wherever the checkout lives. *)
let in_workdir ~workload f =
  let root = Sys.getcwd () in
  let top = Filename.concat root ".e2e_work" in
  let dir = Filename.concat top (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  let tmp = Filename.get_temp_dir_name () in
  mkdir_p dir;
  Sys.chdir dir;
  Filename.set_temp_dir_name dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir root;
      Filename.set_temp_dir_name tmp;
      rm_rf dir;
      try Unix.rmdir top with Unix.Unix_error _ -> ())
    f

let measure ~workload s =
  let run =
    match List.assoc_opt workload workloads with
    | Some run -> run
    | None -> fail "unknown workload %S" workload
  in
  let r = in_workdir ~workload (fun () -> run s) in
  {
    r with
    metrics =
      r.metrics
      @ [
          metric "failed_frac" "ratio" (ratio (float_of_int r.failed) (float_of_int r.attempted));
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
        ];
  }

(* What a run reports: end-to-end metrics untraced, per-layer traced. *)
let reported s r = if s.traced then r.layers else r.metrics

(* The metrics BENCHMARK.json lists for this mode, in its order; a
   set-up error names any the workload did not compute. *)
let listed ~traced metrics =
  let e2e, layer = read_benchmark () in
  let wanted = List.map (fun (n, _, _) -> n) (if traced then layer else e2e) in
  match List.filter (fun n -> not (List.exists (fun m -> m.m_name = n) metrics)) wanted with
  | [] -> List.map (fun n -> List.find (fun m -> m.m_name = n) metrics) wanted
  | missing -> fail "metrics not computed: %s" (String.concat ", " missing)

let value_json m = J.Obj [ ("value", J.Num m.m_value); ("unit", J.Str m.m_unit) ]

let record_json ~workload s r =
  J.Obj
    [
      ("workload", J.Str workload);
      ("seed", J.int s.seed);
      ("seconds", J.Num s.seconds);
      ("traced", J.Bool s.traced);
      ("attempted", J.int r.attempted);
      ("failed", J.int r.failed);
      ("metrics", J.Obj (List.map (fun m -> (m.m_name, value_json m)) (reported s r)));
    ]

let append path line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc line;
  output_char oc '\n';
  close_out oc

let summary_json s r =
  J.Obj
    [
      ("correct", J.Bool (r.failed = 0));
      ("attempted", J.int r.attempted);
      ("failed", J.int r.failed);
      ( "metrics",
        J.Obj (List.map (fun m -> (m.m_name, value_json m)) (listed ~traced:s.traced (reported s r)))
      );
    ]

let cmd_run args =
  let workload = ref None and seed = ref 1 and seconds = ref nan in
  let traced = ref false and trace_out = ref None and record = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string n; go rest
    | "--seconds" :: n :: rest -> seconds := float_of_string n; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> traced := t = "1"; go rest
    | "--trace-out" :: f :: rest -> trace_out := Some (absolute f); traced := true; go rest
    | "--record" :: f :: rest -> record := Some (absolute f); go rest
    | _ -> usage ()
  in
  (try go args with Failure _ -> usage ());
  let workload = match !workload with Some w -> w | None -> usage () in
  if Float.is_nan !seconds then seconds := run_seconds ();
  if !seconds <= 0.0 then usage ();
  let s = { seed = !seed; seconds = !seconds; traced = !traced; smoke = false } in
  let r = measure ~workload s in
  Option.iter
    (fun path ->
      let merged = T.create () in
      List.iter (T.absorb merged) r.tracers;
      T.write_chrome ~process_name:("e2e " ^ workload) merged ~path)
    !trace_out;
  Option.iter (fun path -> append path (J.to_string (record_json ~workload s r))) !record;
  List.iter
    (fun m ->
      Printf.printf "%s %s %s%s\n" m.m_name (J.number m.m_value) m.m_unit
        (if m.m_samples > 0 then Printf.sprintf " n=%d" m.m_samples else ""))
    (reported s r);
  print_endline (J.to_string (summary_json s r));
  exit (if r.failed = 0 then 0 else 1)

(* ---------- smoke ---------- *)

(* Every workload once, traced, at tiny fixed sizes: each must compute
   every metric BENCHMARK.json lists, end-to-end and per-layer, and
   answer nothing wrong. *)
let cmd_smoke () =
  let bad = ref 0 in
  List.iter
    (fun (workload, _) ->
      let s = { seed = 1; seconds = 1.0; traced = true; smoke = true } in
      let t0 = now () in
      let r = measure ~workload s in
      ignore (listed ~traced:false r.metrics);
      ignore (listed ~traced:true r.layers);
      if r.failed > 0 then incr bad;
      Printf.printf "smoke %-12s %4d ops, %d failed, %.2f s\n" workload r.attempted r.failed
        (now () -. t0))
    workloads;
  exit (if !bad = 0 then 0 else 1)

(* ---------- sweep ---------- *)

(* One run set for [compare]: every workload with seeds 1 to 10 at
   BENCHMARK.json's run length, plus a traced run for seeds 1 and 2, each
   in its own process, every record appended to [record]. *)
let cmd_sweep record =
  let record = absolute record in
  let seconds = run_seconds () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let failures = ref 0 in
  for seed = 1 to 10 do
    List.iter
      (fun workload ->
        List.iter
          (fun trace ->
            let argv =
              [| Sys.executable_name; "run"; "--workload"; workload; "--seed"; string_of_int seed;
                 "--seconds"; Printf.sprintf "%g" seconds; "--trace"; trace; "--record"; record;
                 "--benchmark"; !benchmark_file; "--expected"; !expected_dir |]
            in
            let pid = Unix.create_process Sys.executable_name argv Unix.stdin devnull Unix.stderr in
            let status = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 255 in
            if status <> 0 then incr failures;
            Printf.printf "sweep %-12s seed %-3d trace %s exit %d\n%!" workload seed trace status)
          (if seed <= 2 then [ "0"; "1" ] else [ "0" ]))
      (List.map fst workloads)
  done;
  Unix.close devnull;
  exit (if !failures = 0 then 0 else 1)

(* ---------- main ---------- *)

let () =
  (* options every command takes, resolved before any workload changes
     directory *)
  let rec common = function
    | "--benchmark" :: f :: rest -> benchmark_file := f; common rest
    | "--expected" :: d :: rest -> expected_dir := d; common rest
    | a :: rest -> a :: common rest
    | [] -> []
  in
  let args = common (List.tl (Array.to_list Sys.argv)) in
  benchmark_file := absolute !benchmark_file;
  expected_dir := absolute !expected_dir;
  match args with
  | "run" :: rest -> cmd_run rest
  | [ "smoke" ] -> cmd_smoke ()
  | [ "sweep"; record ] -> cmd_sweep record
  | [ "compare"; base; head ] ->
      let e2e, layer = read_benchmark () in
      exit (if Compare.main ~specs:(e2e @ layer) base head = 0 then 0 else 1)
  | _ -> usage ()
