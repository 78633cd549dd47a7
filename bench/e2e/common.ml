(* What every workload shares: its settings, metric values, order
   statistics, repeated set-up and the private working directory. *)

type settings = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  traced : bool;
  smoke : bool;  (** tiny fixed sizes: the runtest check, not a measurement *)
}

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_samples : int;  (** sample count behind a percentile; 0 otherwise *)
}

let metric ?(samples = 0) m_name m_unit m_value =
  { m_name; m_value; m_unit; m_samples = samples }

(* What a workload hands back: how many operations it attempted, how
   many failed or answered wrongly, its end-to-end metrics (meaningful
   only untraced), its per-layer metrics (traced runs only), and the
   tracers a traced run recorded into. *)
type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  layers : metric list;
  tracers : Lg_support.Trace.t list;
}

let now = Unix.gettimeofday

(* ---------- order statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

(* The p50/p95 pair of a latency sample, in milliseconds. *)
let latency_metrics prefix seconds =
  let n = List.length seconds in
  [
    metric ~samples:n (prefix ^ "_p50_ms") "ms" (1e3 *. quantile seconds 0.5);
    metric ~samples:n (prefix ^ "_p95_ms") "ms" (1e3 *. quantile seconds 0.95);
  ]

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Throughput as the median over rounds of equal work: a burst of
   contention on the host that slows a minority of rounds does not move
   it. *)
let median_rate ~per_round walls =
  median (List.map (fun w -> float_of_int per_round /. w) walls)

(* ---------- process facts ---------- *)

(* VmHWM: the resident-set high-water mark of this process. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

(* ---------- set-up ---------- *)

(* Build a workload's state [reps] times, disposing all but the last,
   and answer it with the median build time: set-up is measured like
   any other operation, so work moved into it shows. *)
let repeated_setup ~reps ~build ~dispose =
  let rec go i times =
    let t0 = now () in
    let s = build () in
    let times = (now () -. t0) :: times in
    if i >= reps then (s, median times)
    else begin
      dispose s;
      go (i + 1) times
    end
  in
  go 1 []

let setup_reps s = if s.smoke then 1 else 3

(* Run the timed phase's rounds: the run length in seconds over a
   round's nominal time on a 2-core host, whatever the host's speed, so
   both sides of a comparison do the same operations. *)
let each_round s ~nominal f =
  let n = if s.smoke then 1 else max 1 (int_of_float (Float.round (s.seconds /. nominal))) in
  for _ = 1 to n do
    f ()
  done

(* ---------- files ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let digest_string s = Digest.to_hex (Digest.string s)

(* Committed reference digests live next to the sources, one file per
   (workload, shape, seed) key. *)
let expected_dir = ref "bench/e2e/expected"

let digest_key ~workload s =
  Printf.sprintf "%s%s-seed%d" workload (if s.smoke then "-smoke" else "") s.seed

let reported = Hashtbl.create 4

(* False only when a digest was committed for [key] and [got] differs. *)
let check_digest key got =
  let path = Filename.concat !expected_dir (key ^ ".md5") in
  let want = if Sys.file_exists path then Some (String.trim (read_file path)) else None in
  if want <> Some got && not (Hashtbl.mem reported (key, got)) then begin
    Hashtbl.add reported (key, got) ();
    Printf.eprintf "e2e: %s: digest %s, committed %s\n%!" key got
      (Option.value ~default:"none" want)
  end;
  want = None || want = Some got

(* ---------- JSON helpers ---------- *)

module J = Lg_support.Json_out

let outputs_json outputs =
  J.Obj
    (List.map
       (fun (name, v) -> (name, J.Str (Lg_support.Value.to_string v)))
       outputs)

(* A translator for a generated corpus grammar, for the benchmark's own
   oracle and front-end probes. *)
let corpus_translator (b : Lg_corpus.Corpus_gen.built) =
  let g = b.Lg_corpus.Corpus_gen.b_grammar in
  match
    Linguist.Translator.of_source ~ag_source:g.Lg_corpus.Corpus_gen.g_source
      ~file:g.Lg_corpus.Corpus_gen.g_name ()
  with
  | Ok t -> t
  | Error _ -> failwith ("e2e: corpus grammar does not build: " ^ g.Lg_corpus.Corpus_gen.g_name)

(* ---------- batch rounds ---------- *)

module Batch = Lg_server.Batch

let batch_digest (s : Batch.summary) =
  digest_string (J.to_string (Batch.to_json ~timings:false s))

(* Jobs of [got] that failed or whose result differs from [want]'s. *)
let batch_failures ~(want : Batch.summary) (got : Batch.summary) =
  let same (a : Batch.outcome) (b : Batch.outcome) =
    a.Batch.o_ok && a.Batch.o_id = b.Batch.o_id && a.Batch.o_exit = b.Batch.o_exit
    && a.Batch.o_error = b.Batch.o_error
    && J.to_string a.Batch.o_payload = J.to_string b.Batch.o_payload
  in
  if List.length got.Batch.outcomes <> List.length want.Batch.outcomes then
    List.length want.Batch.outcomes
  else
    List.fold_left2
      (fun n a b ->
        if same a b then n
        else begin
          Printf.eprintf "e2e: job %s: exit %d%s, expected exit %d\n%!" a.Batch.o_id
            a.Batch.o_exit
            (match a.Batch.o_error with Some e -> " (" ^ e ^ ")" | None -> "")
            b.Batch.o_exit;
          n + 1
        end)
      0 got.Batch.outcomes want.Batch.outcomes

let outputs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, va) (nb, vb) -> String.equal na nb && Lg_support.Value.equal va vb)
       a b
