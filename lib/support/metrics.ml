(* The pipeline-wide metrics registry: counters, gauges and fixed-bucket
   histograms behind one name table. See the interface for the design
   notes; the implementation mirrors Trace — a disabled registry is one
   field check per operation, and an ambient registry serves call sites
   that predate explicit threading.

   A registry may be shared across domains (the batch-evaluation worker
   pool publishes server.* metrics from every worker into one registry),
   so every mutation and every snapshot runs under the registry's mutex.
   The disabled path takes no lock — [null] stays one field check — and
   the ambient registry is domain-local state, so a worker installing its
   own registry never clobbers another domain's. *)

type histogram = {
  h_buckets : float array;
  h_counts : int array;
  h_sum : float;
  h_count : int;
}

type value = Counter of int | Gauge of float | Histogram of histogram

(* live cells are mutable so the hot paths never reallocate *)
type hist_cell = {
  buckets : float array;
  counts : int array;  (* one per bucket + overflow *)
  mutable sum : float;
  mutable count : int;
}

(* a windowed histogram keeps two fixed-width frames (current and
   previous) and rotates on the registry clock; readers see the two
   frames merged, so a snapshot always covers between one and two
   windows of recent observations and older ones are forgotten *)
type win_cell = {
  w_window : float;  (* frame width, seconds *)
  mutable w_start : float;  (* current frame's start *)
  w_cur : hist_cell;
  w_prev : hist_cell;
}

type cell = C of int ref | G of float ref | H of hist_cell | W of win_cell

type t = {
  on : bool;
  lock : Mutex.t;
  cells : (string, cell) Hashtbl.t;
  clock : unit -> float;  (* drives windowed-histogram rotation only *)
}

let null =
  {
    on = false;
    lock = Mutex.create ();
    cells = Hashtbl.create 1;
    clock = (fun () -> 0.0);
  }

let create ?(clock = Unix.gettimeofday) () =
  { on = true; lock = Mutex.create (); cells = Hashtbl.create 32; clock }

let enabled t = t.on

(* Every enabled-path operation runs under the lock; [kind_error] raises
   from inside [locked], so the mutex is released on that path too. *)
let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let default_buckets =
  [ 1.0; 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0; 16384.0; 65536.0; 262144.0; 1048576.0 ]

let latency_buckets =
  [
    0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5;
    5.0; 10.0; 30.0; 60.0;
  ]

let kind_error name ~want ~got =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, used as a %s" name got want)

let kind_name = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | H _ -> "histogram"
  | W _ -> "windowed histogram"

let incr t ?(by = 1) name =
  if t.on then
    locked t @@ fun () ->
    match Hashtbl.find_opt t.cells name with
    | Some (C r) -> r := !r + by
    | Some c -> kind_error name ~want:"counter" ~got:(kind_name c)
    | None -> Hashtbl.replace t.cells name (C (ref by))

let set t name v =
  if t.on then
    locked t @@ fun () ->
    match Hashtbl.find_opt t.cells name with
    | Some (G r) -> r := v
    | Some c -> kind_error name ~want:"gauge" ~got:(kind_name c)
    | None -> Hashtbl.replace t.cells name (G (ref v))

let set_int t name v = set t name (float_of_int v)

let set_max t name v =
  if t.on then
    locked t @@ fun () ->
    match Hashtbl.find_opt t.cells name with
    | Some (G r) -> if v > !r then r := v
    | Some c -> kind_error name ~want:"gauge" ~got:(kind_name c)
    | None -> Hashtbl.replace t.cells name (G (ref v))

let bucket_index buckets v =
  (* first bucket whose upper bound admits v; length buckets = overflow *)
  let n = Array.length buckets in
  let i = ref 0 in
  while !i < n && v > buckets.(!i) do
    i := !i + 1
  done;
  !i

let new_hist name buckets =
  let sorted = List.sort_uniq compare buckets in
  if sorted = [] then
    invalid_arg (Printf.sprintf "Metrics: %S: empty bucket list" name);
  let buckets = Array.of_list sorted in
  { buckets; counts = Array.make (Array.length buckets + 1) 0; sum = 0.0; count = 0 }

let add h v =
  let i = bucket_index h.buckets v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1

let merge ~into h =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts;
  into.sum <- into.sum +. h.sum;
  into.count <- into.count + h.count

let clear h =
  Array.fill h.counts 0 (Array.length h.counts) 0;
  h.sum <- 0.0;
  h.count <- 0

(* under the lock: the named plain histogram, created with [buckets] on
   first use *)
let hist_cell t name buckets =
  match Hashtbl.find_opt t.cells name with
  | Some (H h) -> h
  | Some c -> kind_error name ~want:"histogram" ~got:(kind_name c)
  | None ->
      let h = new_hist name buckets in
      Hashtbl.replace t.cells name (H h);
      h

let observe t ?(buckets = default_buckets) name v =
  if t.on then locked t @@ fun () -> add (hist_cell t name buckets) v

(* A tally counts integer observations against [default_buckets]
   without allocating: its int sum never boxes, and the default bounds
   are integers, so the bucket search runs on ints. *)
type tally = { t_counts : int array; mutable t_sum : int }

let default_bounds = Array.of_list (List.map int_of_float default_buckets)
let tally () = { t_counts = Array.make (Array.length default_bounds + 1) 0; t_sum = 0 }

let tally_int tl v =
  let i = ref 0 in
  while !i < Array.length default_bounds && v > default_bounds.(!i) do
    i := !i + 1
  done;
  tl.t_counts.(!i) <- tl.t_counts.(!i) + 1;
  tl.t_sum <- tl.t_sum + v

let publish_tally t name tl =
  if t.on then
    locked t @@ fun () ->
    let h = hist_cell t name default_buckets in
    if Array.to_list h.buckets <> default_buckets then
      invalid_arg (Printf.sprintf "Metrics: %S: not on the default buckets" name);
    merge ~into:h
      {
        h with
        counts = tl.t_counts;
        sum = float_of_int tl.t_sum;
        count = Array.fold_left ( + ) 0 tl.t_counts;
      }

(* under the lock: advance a windowed cell's frames to cover [now].
   One frame behind → current becomes previous; two or more behind →
   both frames are stale and clear. The new frame start is aligned to
   the window grid so idle periods don't drift the boundaries. *)
let rotate_window now w =
  let behind = now -. w.w_start in
  if behind >= 2.0 *. w.w_window then begin
    clear w.w_cur;
    clear w.w_prev;
    w.w_start <- now
  end
  else if behind >= w.w_window then begin
    clear w.w_prev;
    merge ~into:w.w_prev w.w_cur;
    clear w.w_cur;
    w.w_start <- w.w_start +. w.w_window
  end

let observe_window t ?(buckets = default_buckets) ~window name v =
  if t.on then
    locked t @@ fun () ->
    let w =
      match Hashtbl.find_opt t.cells name with
      | Some (W w) -> w
      | Some c -> kind_error name ~want:"windowed histogram" ~got:(kind_name c)
      | None ->
          let w =
            {
              w_window = Float.max 0.001 window;
              w_start = t.clock ();
              w_cur = new_hist name buckets;
              w_prev = new_hist name buckets;
            }
          in
          Hashtbl.replace t.cells name (W w);
          w
    in
    rotate_window (t.clock ()) w;
    add w.w_cur v

let snapshot h =
  Histogram
    {
      h_buckets = Array.copy h.buckets;
      h_counts = Array.copy h.counts;
      h_sum = h.sum;
      h_count = h.count;
    }

let freeze now = function
  | C r -> Counter !r
  | G r -> Gauge !r
  | H h -> snapshot h
  | W w ->
      (* rotate first so a quiet histogram reads empty once its frames
         age out, then export the two frames merged as a plain
         histogram — every reader (percentiles, JSON, Prometheus)
         works on it unchanged *)
      rotate_window now w;
      let both = { w.w_prev with counts = Array.copy w.w_prev.counts } in
      merge ~into:both w.w_cur;
      snapshot both

let dump t =
  locked t @@ fun () ->
  let now = t.clock () in
  Hashtbl.fold (fun name c acc -> (name, freeze now c) :: acc) t.cells []
  |> List.sort compare

let find t name =
  locked t @@ fun () ->
  Option.map (freeze (t.clock ())) (Hashtbl.find_opt t.cells name)

let reset t = locked t @@ fun () -> Hashtbl.reset t.cells

(* Prometheus-style quantile estimation over the cumulative bucket
   counts: find the bucket the target rank lands in and interpolate
   linearly inside it. A rank that lands in the +Inf overflow bucket
   cannot be resolved past the largest finite bound, so that bound is
   the answer (the same convention as histogram_quantile). *)
let percentile (h : histogram) q =
  if h.h_count = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int h.h_count in
    let nb = Array.length h.h_buckets in
    let rec go i cum =
      if i >= nb then Some h.h_buckets.(nb - 1)
      else
        let cum' = cum + h.h_counts.(i) in
        if h.h_counts.(i) > 0 && float_of_int cum' >= target then
          let lower = if i = 0 then 0.0 else h.h_buckets.(i - 1) in
          let upper = h.h_buckets.(i) in
          let within =
            (target -. float_of_int cum) /. float_of_int h.h_counts.(i)
          in
          Some (lower +. ((upper -. lower) *. Float.max 0.0 within))
        else go (i + 1) cum'
    in
    go 0 0
  end

(* the percentiles both exporters derive: the SLO points *)
let slo_points = [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ]

(* ---------- ambient registry ---------- *)

(* Domain-local: each domain gets the null registry until it installs one.
   Worker domains of the batch pool install the shared (locked) registry
   explicitly; a single-threaded CLI run behaves exactly as before. *)
let ambient_registry = Domain.DLS.new_key (fun () -> null)
let install t = Domain.DLS.set ambient_registry t
let ambient () = Domain.DLS.get ambient_registry

(* ---------- exporters ---------- *)

let to_json t =
  Json_out.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counter n -> Json_out.int n
           | Gauge f -> Json_out.Num f
           | Histogram h ->
               Json_out.Obj
                 ([
                    ( "buckets",
                      Json_out.Arr
                        (Array.to_list (Array.map (fun b -> Json_out.Num b) h.h_buckets))
                    );
                    ( "counts",
                      Json_out.Arr
                        (Array.to_list (Array.map Json_out.int h.h_counts)) );
                    ("sum", Json_out.Num h.h_sum);
                    ("count", Json_out.int h.h_count);
                  ]
                 @ List.filter_map
                     (fun (key, q) ->
                       Option.map
                         (fun v -> (key, Json_out.Num v))
                         (percentile h q))
                     slo_points) ))
       (dump t))

let prom_name name =
  String.map (fun c -> if c = '.' || c = '-' then '_' else c) name

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let pp_prometheus ppf t =
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      match v with
      | Counter c ->
          Format.fprintf ppf "# TYPE %s counter@.%s %d@." n n c
      | Gauge g ->
          Format.fprintf ppf "# TYPE %s gauge@.%s %s@." n n (prom_float g)
      | Histogram h ->
          Format.fprintf ppf "# TYPE %s histogram@." n;
          let cum = ref 0 in
          Array.iteri
            (fun i b ->
              cum := !cum + h.h_counts.(i);
              Format.fprintf ppf "%s_bucket{le=\"%s\"} %d@." n (prom_float b)
                !cum)
            h.h_buckets;
          Format.fprintf ppf "%s_bucket{le=\"+Inf\"} %d@." n h.h_count;
          Format.fprintf ppf "%s_sum %s@." n (prom_float h.h_sum);
          Format.fprintf ppf "%s_count %d@." n h.h_count;
          (* derived SLO quantiles, summary-style, next to the buckets
             they came from — scrape-side percentile math optional *)
          List.iter
            (fun (_, q) ->
              match percentile h q with
              | Some v ->
                  Format.fprintf ppf "%s{quantile=\"%s\"} %s@." n
                    (prom_float q) (prom_float v)
              | None -> ())
            slo_points)
    (dump t)
