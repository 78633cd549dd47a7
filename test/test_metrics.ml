(* Tests for the metrics registry (Lg_support.Metrics): kinds and their
   invariants, the ambient install protocol, and both exporters —
   to_json (round-tripped through the shared JSON parser) and the
   Prometheus text exposition. *)
open Lg_support

let dump_names t = List.map fst (Metrics.dump t)

(* ----- recording ----- *)

let test_counters () =
  let t = Metrics.create () in
  Metrics.incr t "a.hits";
  Metrics.incr t ~by:41 "a.hits";
  Metrics.incr t "b.misses";
  (match Metrics.find t "a.hits" with
  | Some (Metrics.Counter 42) -> ()
  | _ -> Alcotest.fail "a.hits should be Counter 42");
  Alcotest.(check (list string))
    "dump sorted by name" [ "a.hits"; "b.misses" ] (dump_names t)

let test_gauges () =
  let t = Metrics.create () in
  Metrics.set t "pool.pages" 3.0;
  Metrics.set_int t "pool.pages" 7;
  match Metrics.find t "pool.pages" with
  | Some (Metrics.Gauge 7.0) -> ()
  | _ -> Alcotest.fail "gauge should hold its latest value"

let test_histogram_counts_sum_to_total () =
  let t = Metrics.create () in
  let values = [ 0.5; 1.0; 3.0; 17.0; 1e9 ] in
  List.iter (Metrics.observe t "bytes") values;
  match Metrics.find t "bytes" with
  | Some (Metrics.Histogram h) ->
      Alcotest.(check int)
        "one count cell per bucket plus overflow"
        (Array.length h.Metrics.h_buckets + 1)
        (Array.length h.Metrics.h_counts);
      Alcotest.(check int)
        "bucket counts sum to the observation count" h.Metrics.h_count
        (Array.fold_left ( + ) 0 h.Metrics.h_counts);
      Alcotest.(check int) "count" (List.length values) h.Metrics.h_count;
      Alcotest.(check (float 1e-6))
        "sum"
        (List.fold_left ( +. ) 0.0 values)
        h.Metrics.h_sum
  | _ -> Alcotest.fail "bytes should be a histogram"

let test_histogram_buckets_fixed_at_first_use () =
  let t = Metrics.create () in
  Metrics.observe t ~buckets:[ 1.0; 10.0 ] "lat" 5.0;
  Metrics.observe t ~buckets:[ 99.0 ] "lat" 5.0;
  match Metrics.find t "lat" with
  | Some (Metrics.Histogram h) ->
      Alcotest.(check int) "buckets from first observation" 2
        (Array.length h.Metrics.h_buckets)
  | _ -> Alcotest.fail "lat should be a histogram"

let test_kind_mismatch_raises () =
  let t = Metrics.create () in
  Metrics.incr t "x";
  Alcotest.(check bool)
    "gauge write to a counter raises" true
    (match Metrics.set t "x" 1.0 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "histogram write to a counter raises" true
    (match Metrics.observe t "x" 1.0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_null_registry_is_inert () =
  Alcotest.(check bool) "disabled" false (Metrics.enabled Metrics.null);
  Metrics.incr Metrics.null "x";
  Metrics.set Metrics.null "y" 1.0;
  Metrics.observe Metrics.null "z" 1.0;
  Alcotest.(check int) "records nothing" 0
    (List.length (Metrics.dump Metrics.null))

let test_reset () =
  let t = Metrics.create () in
  Metrics.incr t "a";
  Metrics.observe t "h" 2.0;
  Metrics.reset t;
  Alcotest.(check int) "empty after reset" 0 (List.length (Metrics.dump t))

(* ----- percentiles ----- *)

let hist name t =
  match Metrics.find t name with
  | Some (Metrics.Histogram h) -> h
  | _ -> Alcotest.fail (name ^ " should be a histogram")

let test_percentile_empty () =
  let h =
    {
      Metrics.h_buckets = [| 1.0; 2.0 |];
      h_counts = [| 0; 0; 0 |];
      h_sum = 0.0;
      h_count = 0;
    }
  in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "empty histogram has no q=%g" q)
        true
        (Metrics.percentile h q = None))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_percentile_single_bucket () =
  let t = Metrics.create () in
  (* every observation lands in the (2,4] bucket: every quantile
     interpolates inside it *)
  List.iter
    (Metrics.observe t ~buckets:[ 2.0; 4.0; 8.0 ] "h")
    [ 2.5; 3.0; 3.5 ];
  let h = hist "h" t in
  List.iter
    (fun q ->
      match Metrics.percentile h q with
      | Some v ->
          Alcotest.(check bool)
            (Printf.sprintf "q=%g inside the only occupied bucket" q)
            true
            (v >= 2.0 && v <= 4.0)
      | None -> Alcotest.fail "non-empty histogram must answer")
    [ 0.01; 0.5; 0.95; 0.99; 1.0 ]

let test_percentile_all_overflow () =
  let t = Metrics.create () in
  (* everything beyond the largest finite bound: the histogram cannot
     resolve past it, so every quantile saturates there *)
  List.iter (Metrics.observe t ~buckets:[ 1.0; 4.0 ] "h") [ 100.0; 200.0 ];
  let h = hist "h" t in
  List.iter
    (fun q ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "q=%g saturates at the largest finite bound" q)
        (Some 4.0) (Metrics.percentile h q))
    [ 0.5; 0.95; 0.99 ]

let test_percentile_monotone_and_clamped () =
  let t = Metrics.create () in
  List.iter
    (fun i ->
      Metrics.observe t ~buckets:Metrics.latency_buckets "h"
        (0.001 *. float_of_int i))
    (List.init 100 (fun i -> i + 1));
  let h = hist "h" t in
  let at q =
    match Metrics.percentile h q with
    | Some v -> v
    | None -> Alcotest.fail "non-empty histogram must answer"
  in
  Alcotest.(check bool) "p50 <= p95" true (at 0.5 <= at 0.95);
  Alcotest.(check bool) "p95 <= p99" true (at 0.95 <= at 0.99);
  Alcotest.(check (float 0.0)) "q clamped below" (at 0.0) (at (-1.0));
  Alcotest.(check (float 0.0)) "q clamped above" (at 1.0) (at 2.0)

(* The registry's concurrency contract, exercised where it matters for
   the SLO histograms: many domains observing into the same series must
   lose nothing. *)
let test_concurrent_observe () =
  let t = Metrics.create () in
  let domains = 4 and per_domain = 1000 in
  let worker d =
    Domain.spawn (fun () ->
        for i = 1 to per_domain do
          Metrics.observe t ~buckets:Metrics.latency_buckets
            "server.queue_wait_seconds"
            (float_of_int ((d * per_domain) + i) *. 1e-5);
          Metrics.observe t ~buckets:Metrics.latency_buckets
            "server.service_seconds"
            (float_of_int i *. 1e-4)
        done)
  in
  List.iter Domain.join (List.map worker (List.init domains Fun.id));
  List.iter
    (fun name ->
      let h = hist name t in
      Alcotest.(check int)
        (name ^ ": no observation lost")
        (domains * per_domain) h.Metrics.h_count;
      Alcotest.(check int)
        (name ^ ": bucket counts consistent")
        h.Metrics.h_count
        (Array.fold_left ( + ) 0 h.Metrics.h_counts);
      match Metrics.percentile h 0.95 with
      | Some v -> Alcotest.(check bool) (name ^ ": p95 positive") true (v > 0.0)
      | None -> Alcotest.fail (name ^ ": percentile must answer"))
    [ "server.queue_wait_seconds"; "server.service_seconds" ]

(* ----- ambient protocol ----- *)

let test_ambient () =
  Alcotest.(check bool)
    "defaults to null" false
    (Metrics.enabled (Metrics.ambient ()));
  let t = Metrics.create () in
  Metrics.install t;
  Fun.protect
    ~finally:(fun () -> Metrics.install Metrics.null)
    (fun () ->
      Metrics.incr (Metrics.ambient ()) "deep.site");
  match Metrics.find t "deep.site" with
  | Some (Metrics.Counter 1) -> ()
  | _ -> Alcotest.fail "ambient write should land in the installed registry"

(* ----- exporters ----- *)

let value_of_json name j =
  match Json_out.member_exn name j with
  | Json_out.Num f -> f
  | _ -> Alcotest.fail (name ^ " should be a number")

let test_to_json_round_trip () =
  let t = Metrics.create () in
  Metrics.incr t ~by:7 "c";
  Metrics.set t "g" 2.5;
  Metrics.observe t ~buckets:[ 1.0; 4.0 ] "h" 3.0;
  Metrics.observe t ~buckets:[ 1.0; 4.0 ] "h" 9.0;
  let j = Json_out.parse (Json_out.to_string (Metrics.to_json t)) in
  Alcotest.(check (float 0.0)) "counter" 7.0 (value_of_json "c" j);
  Alcotest.(check (float 0.0)) "gauge" 2.5 (value_of_json "g" j);
  let h = Json_out.member_exn "h" j in
  Alcotest.(check (float 0.0)) "hist count" 2.0 (value_of_json "count" h);
  Alcotest.(check (float 0.0)) "hist sum" 12.0 (value_of_json "sum" h);
  Alcotest.(check (list (float 0.0)))
    "hist counts: one per bucket plus overflow" [ 0.0; 1.0; 1.0 ]
    (List.map Json_out.to_num (Json_out.to_list (Json_out.member_exn "counts" h)))

(* Any registry's JSON export re-parses to an equal tree — numbers in
   the exporter round-trip exactly. *)
let registry_gen =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b.c"; "d.e_f"; "apt.bytes"; "x-y" ] in
  let op =
    oneof
      [
        map2 (fun n v -> `Incr (n, v)) name (int_range 0 1000);
        map2 (fun n v -> `Set (n, v)) name (float_bound_inclusive 1e6);
        map2 (fun n v -> `Observe (n, v)) name (float_bound_inclusive 1e7);
      ]
  in
  list_size (int_range 0 40) op

let apply_ops ops =
  let t = Metrics.create () in
  List.iter
    (fun op ->
      (* kind collisions are a programming error; the generator can
         produce them, so just skip those writes *)
      try
        match op with
        | `Incr (n, v) -> Metrics.incr t ~by:v ("c." ^ n)
        | `Set (n, v) -> Metrics.set t ("g." ^ n) v
        | `Observe (n, v) -> Metrics.observe t ("h." ^ n) v
      with Invalid_argument _ -> ())
    ops;
  t

let prop_to_json_reparses =
  QCheck.Test.make ~count:200 ~name:"Metrics.to_json round-trips through parse"
    (QCheck.make registry_gen) (fun ops ->
      let t = apply_ops ops in
      let j = Metrics.to_json t in
      Json_out.parse (Json_out.to_string j) = j
      && Json_out.parse (Json_out.to_string ~pretty:true j) = j)

let prop_histogram_counts_sum =
  QCheck.Test.make ~count:200
    ~name:"histogram bucket counts always sum to the observation count"
    (QCheck.make registry_gen) (fun ops ->
      let t = apply_ops ops in
      List.for_all
        (fun (_, v) ->
          match v with
          | Metrics.Histogram h ->
              Array.fold_left ( + ) 0 h.Metrics.h_counts = h.Metrics.h_count
          | Metrics.Counter _ | Metrics.Gauge _ -> true)
        (Metrics.dump t))

let test_json_percentile_keys () =
  let t = Metrics.create () in
  List.iter
    (Metrics.observe t ~buckets:Metrics.latency_buckets "server.service_seconds")
    [ 0.002; 0.004; 0.02; 0.2 ];
  let j = Json_out.parse (Json_out.to_string (Metrics.to_json t)) in
  let h = Json_out.member_exn "server.service_seconds" j in
  let p name = value_of_json name h in
  Alcotest.(check bool) "p50 <= p95 <= p99" true
    (p "p50" <= p "p95" && p "p95" <= p "p99");
  Alcotest.(check bool) "p99 within the observed range" true
    (p "p99" > 0.0 && p "p99" <= 0.25)

let test_prometheus_exposition () =
  let t = Metrics.create () in
  Metrics.incr t ~by:3 "apt.bytes_read";
  Metrics.set t "pool-size" 8.0;
  Metrics.observe t ~buckets:[ 1.0; 4.0 ] "engine.pass_rules" 2.0;
  let text = Format.asprintf "%a" Metrics.pp_prometheus t in
  let has sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "counter with dots mapped to underscores" true
    (has "apt_bytes_read 3");
  Alcotest.(check bool) "counter TYPE line" true (has "# TYPE apt_bytes_read counter");
  Alcotest.(check bool) "gauge with dash mapped" true (has "pool_size 8");
  Alcotest.(check bool)
    "cumulative +Inf bucket" true
    (has "engine_pass_rules_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool) "histogram count series" true (has "engine_pass_rules_count 1");
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "quantile %s series present" q)
        true
        (has (Printf.sprintf "engine_pass_rules{quantile=\"%s\"}" q)))
    [ "0.5"; "0.95"; "0.99" ]

(* ----- tallies: per-item counts published once ----- *)

let test_tally_matches_observe () =
  let values = [ 0; 1; 3; 4; 5; 17; 300; 5000; 2_000_000 ] in
  let by_hand = Metrics.create () and tallied = Metrics.create () in
  List.iter (fun v -> Metrics.observe by_hand "n" (float_of_int v)) values;
  let tl = Metrics.tally () in
  List.iter (Metrics.tally_int tl) values;
  Metrics.publish_tally tallied "n" tl;
  Alcotest.(check bool) "same histogram" true
    (Metrics.find by_hand "n" = Metrics.find tallied "n");
  Metrics.observe tallied ~buckets:[ 2.0 ] "m" 1.0;
  Alcotest.check_raises "other buckets refused"
    (Invalid_argument "Metrics: \"m\": not on the default buckets") (fun () ->
      Metrics.publish_tally tallied "m" tl)

(* Every APT record's payload size, observed by hand, must give the
   histogram the writers publish at close. *)
let test_record_bytes_per_file () =
  let node i =
    Lg_apt.Node.interior ~prod:(i mod 3) ~sym:i
      ~attrs:(Array.init (i mod 5) (fun k -> Value.Int (k * i)))
  in
  let files = [ List.init 40 node; List.init 7 (fun i -> node (i + 100)) ] in
  let backend = Lg_apt.Aptfile.backend_of_store_name "mem" in
  let published = Metrics.create () and by_hand = Metrics.create () in
  Metrics.install published;
  Fun.protect ~finally:(fun () -> Metrics.install Metrics.null) (fun () ->
      List.iter
        (fun nodes ->
          ignore (Lg_apt.Aptfile.of_list backend nodes);
          List.iter
            (fun n ->
              Metrics.observe by_hand "apt.record_bytes"
                (float_of_int (Lg_apt.Node.encoded_size n)))
            nodes)
        files);
  match Metrics.find published "apt.record_bytes" with
  | Some (Metrics.Histogram h) ->
      Alcotest.(check int) "one observation per record" 47 h.Metrics.h_count;
      Alcotest.(check bool) "buckets, counts and sum as by hand" true
        (Some (Metrics.Histogram h) = Metrics.find by_hand "apt.record_bytes")
  | _ -> Alcotest.fail "apt.record_bytes not published"

let pascal_program n =
  let buf = Buffer.create (n * 24) in
  Buffer.add_string buf
    "program p;\nvar x : integer; y : integer;\nbegin\n  x := 1;\n  y := 0";
  for i = 1 to n do
    Buffer.add_string buf
      (if i mod 2 = 0 then Printf.sprintf ";\n  y := y + x * %d" (i mod 9)
       else ";\n  writeln(y)")
  done;
  Buffer.add_string buf "\nend.\n";
  Buffer.contents buf

(* Minor words of one translation, with the registry [m] installed. *)
let translation_words t m source =
  Metrics.install m;
  Fun.protect ~finally:(fun () -> Metrics.install Metrics.null) (fun () ->
      let before = Gc.minor_words () in
      ignore (Linguist.Translator.translate_exn t ~file:"<words>" source);
      Gc.minor_words () -. before)

(* An installed registry costs a constant number of words per
   translation, not words per APT record. *)
let test_registry_words_independent_of_size () =
  let t = Lg_languages.Pascal_ag.translator () in
  let extra n =
    let source = pascal_program n in
    ignore (translation_words t (Metrics.create ()) source);
    let off = translation_words t Metrics.null source in
    let on = translation_words t (Metrics.create ()) source in
    on -. off
  in
  let small = extra 100 and large = extra 800 in
  if Float.abs (large -. small) > 64.0 then
    Alcotest.failf "registry words grow with input: %.0f at 100, %.0f at 800"
      small large

let () =
  Alcotest.run "metrics"
    [
      ( "recording",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histogram counts sum to total" `Quick
            test_histogram_counts_sum_to_total;
          Alcotest.test_case "histogram buckets fixed at first use" `Quick
            test_histogram_buckets_fixed_at_first_use;
          Alcotest.test_case "kind mismatch raises" `Quick
            test_kind_mismatch_raises;
          Alcotest.test_case "null registry is inert" `Quick
            test_null_registry_is_inert;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "empty histogram" `Quick test_percentile_empty;
          Alcotest.test_case "single occupied bucket" `Quick
            test_percentile_single_bucket;
          Alcotest.test_case "all observations in overflow" `Quick
            test_percentile_all_overflow;
          Alcotest.test_case "monotone and clamped" `Quick
            test_percentile_monotone_and_clamped;
          Alcotest.test_case "concurrent multi-domain observe" `Quick
            test_concurrent_observe;
        ] );
      ("ambient", [ Alcotest.test_case "install/resolve" `Quick test_ambient ]);
      ( "exporters",
        [
          Alcotest.test_case "to_json round trip" `Quick test_to_json_round_trip;
          Alcotest.test_case "percentile keys in to_json" `Quick
            test_json_percentile_keys;
          QCheck_alcotest.to_alcotest prop_to_json_reparses;
          QCheck_alcotest.to_alcotest prop_histogram_counts_sum;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "tallies",
        [
          Alcotest.test_case "tally matches observe" `Quick
            test_tally_matches_observe;
          Alcotest.test_case "apt.record_bytes per file" `Quick
            test_record_bytes_per_file;
          Alcotest.test_case "registry words constant" `Quick
            test_registry_words_independent_of_size;
        ] );
    ]
