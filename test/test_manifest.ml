(* Golden tests for run manifests (Linguist.Manifest) on desk_calc.ag.

   A deterministic fake clock drives the tracer the driver times overlays
   with, and a fresh metrics registry is installed per build, so two
   builds of the same manifest are byte-identical — the reproducibility
   CI's regression gate depends on. The front-end's lazy scanner/parser
   tables are forced once before any registry is installed, so the
   metrics block pins exactly the per-run counters. *)
open Lg_support

let fake_clock () =
  let t = ref (-1.0) in
  fun () ->
    t := !t +. 1.0;
    !t

let source = Lg_languages.Desk_calc.ag_source
let file = "desk_calc.ag"

(* one warm-up run so lazy table construction cannot leak lalr.*/
   scanner.* metrics into whichever test runs first *)
let () = ignore (Linguist.Driver.process_exn ~file source)

let build_manifest () =
  Metrics.install (Metrics.create ());
  Trace.install (Trace.create ~clock:(fake_clock ()) ());
  Fun.protect
    ~finally:(fun () ->
      Metrics.install Metrics.null;
      Trace.install Trace.null)
    (fun () ->
      let artifact = Linguist.Driver.process_exn ~file source in
      Linguist.Manifest.build ~command:"check" ~file artifact)

let manifest = lazy (build_manifest ())

let section name =
  Json_out.member_exn name (Lazy.force manifest)

let check_section name expected =
  Alcotest.(check string)
    (name ^ " section")
    (Json_out.to_string expected)
    (Json_out.to_string (section name))

(* ----- the golden blocks ----- *)

let test_header () =
  Alcotest.(check int)
    "schema version" Linguist.Manifest.version
    (Json_out.to_int (section "linguist_manifest"));
  Alcotest.(check string) "command" "check" (Json_out.to_str (section "command"));
  Alcotest.(check string) "file" file (Json_out.to_str (section "file"))

let test_grammar_block () =
  check_section "grammar"
    (Json_out.Obj
       [
         ("lines", Json_out.int 82);
         ("symbols", Json_out.int 25);
         ("attributes", Json_out.int 20);
         ("productions", Json_out.int 11);
         ("attribute_occurrences", Json_out.int 82);
         ("semantic_functions", Json_out.int 39);
         ("copy_rules", Json_out.int 25);
         ("copy_rule_share_pct", Json_out.int 64);
         ("implicit_copy_rules", Json_out.int 21);
       ])

let test_subsumption_block () =
  check_section "subsumption"
    (Json_out.Obj
       [
         ("candidates", Json_out.int 16);
         ("chosen", Json_out.int 4);
         ("subsumed_copy_rules", Json_out.int 10);
         ("evictions", Json_out.int 12);
       ])

let test_attributes_block () =
  check_section "attributes"
    (Json_out.Obj
       [
         ("temporary", Json_out.int 14); ("significant", Json_out.int 3);
       ])

let test_plan_block () =
  check_section "plan"
    (Json_out.Obj
       [
         ("passes", Json_out.int 2);
         ("strategy", Json_out.Str "bottom_up");
         ( "directions",
           Json_out.Arr [ Json_out.Str "r2l"; Json_out.Str "l2r" ] );
       ])

let test_metrics_block () =
  check_section "metrics"
    (Json_out.Obj
       [
         ("driver.passes", Json_out.int 2);
         ("driver.runs", Json_out.int 1);
         ("driver.source_lines", Json_out.int 82);
         ("evaluability.schedules", Json_out.int 54);
       ])

let test_overlays () =
  let names = List.map fst (match section "overlays" with
    | Json_out.Obj members -> members
    | _ -> Alcotest.fail "overlays should be an object")
  in
  Alcotest.(check (list string))
    "every overlay appears, in pipeline order"
    [
      "parse"; "semantic"; "evaluability"; "planning"; "listing";
      "codegen pass 1"; "codegen pass 2";
    ]
    names;
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (name ^ " has a positive fake-clock duration")
        true
        (Json_out.to_num v > 0.0))
    (match section "overlays" with Json_out.Obj m -> m | _ -> [])

(* The golden property itself: same input, same clock, same registry →
   byte-identical documents. *)
let test_deterministic () =
  let a = Json_out.to_string ~pretty:true (build_manifest ()) in
  let b = Json_out.to_string ~pretty:true (build_manifest ()) in
  Alcotest.(check string) "manifests are byte-identical" a b

let test_round_trips_through_parse () =
  let doc = Lazy.force manifest in
  Alcotest.(check bool)
    "compact form re-parses to an equal tree" true
    (Json_out.parse (Json_out.to_string doc) = doc);
  Alcotest.(check bool)
    "pretty form re-parses to an equal tree" true
    (Json_out.parse (Json_out.to_string ~pretty:true doc) = doc)

let test_pp_smoke () =
  let text = Format.asprintf "%a" Linguist.Manifest.pp (Lazy.force manifest) in
  let has sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub -> Alcotest.(check bool) ("report mentions " ^ sub) true (has sub))
    [ "grammar"; "symbols"; "driver.runs"; "r2l, l2r"; "desk_calc.ag" ]

let () =
  Alcotest.run "manifest"
    [
      ( "golden",
        [
          Alcotest.test_case "header" `Quick test_header;
          Alcotest.test_case "grammar block" `Quick test_grammar_block;
          Alcotest.test_case "subsumption block" `Quick test_subsumption_block;
          Alcotest.test_case "attributes block" `Quick test_attributes_block;
          Alcotest.test_case "plan block" `Quick test_plan_block;
          Alcotest.test_case "metrics block" `Quick test_metrics_block;
          Alcotest.test_case "overlays" `Quick test_overlays;
        ] );
      ( "properties",
        [
          Alcotest.test_case "deterministic under the fake clock" `Quick
            test_deterministic;
          Alcotest.test_case "round-trips through the JSON parser" `Quick
            test_round_trips_through_parse;
          Alcotest.test_case "report rendering" `Quick test_pp_smoke;
        ] );
    ]
