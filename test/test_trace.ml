(* Tests for the tracing subsystem (Lg_support.Trace) and the Io_stats
   field table it surfaces as span arguments.

   A deterministic fake clock (one tick per read) replaces the wall clock
   throughout, so span durations, the Chrome export and the golden summary
   are all reproducible. *)
open Lg_support

let fake_clock () =
  let t = ref (-1.0) in
  fun () ->
    t := !t +. 1.0;
    !t

let fresh () = Trace.create ~clock:(fake_clock ()) ()

(* ---------------------------------------------------------------- *)
(* Span trees: generator + interpreter for the QCheck properties.   *)

type stree = Node of string * stree list

let rec tree_size (Node (_, kids)) =
  List.fold_left (fun acc k -> acc + tree_size k) 1 kids

let stree_gen =
  QCheck.Gen.(
    let name = oneofl [ "alpha"; "beta"; "gamma"; "delta" ] in
    sized @@ fix (fun self n ->
        if n <= 0 then map (fun s -> Node (s, [])) name
        else
          map2
            (fun s kids -> Node (s, kids))
            name
            (list_size (int_bound 3) (self (n / 4)))))

let rec print_stree (Node (s, kids)) =
  match kids with
  | [] -> s
  | _ -> s ^ "(" ^ String.concat " " (List.map print_stree kids) ^ ")"

let stree_arb = QCheck.make ~print:print_stree stree_gen

let rec exec tr (Node (name, kids)) =
  Trace.span tr name (fun () -> List.iter (exec tr) kids)

(* Every executed span must close: depth returns to zero and every node of
   the tree shows up exactly once as a completed span. *)
let prop_balanced =
  QCheck.Test.make ~name:"span trees leave the tracer balanced" ~count:200
    stree_arb (fun t ->
      let tr = fresh () in
      exec tr t;
      Trace.open_depth tr = 0 && Trace.span_count tr = tree_size t)

(* Nesting: any completed span at depth d > 0 lies strictly inside some
   completed span at depth d - 1 (its parent). Holds because the fake
   clock is strictly increasing. *)
let prop_nested =
  QCheck.Test.make ~name:"child span intervals nest inside a parent" ~count:200
    stree_arb (fun t ->
      let tr = fresh () in
      exec tr t;
      let spans = Trace.spans tr in
      List.for_all
        (fun (sp : Trace.span) ->
          sp.Trace.sp_dur >= 0.0
          && (sp.Trace.sp_depth = 0
             || List.exists
                  (fun (parent : Trace.span) ->
                    parent.Trace.sp_depth = sp.Trace.sp_depth - 1
                    && parent.Trace.sp_start < sp.Trace.sp_start
                    && sp.Trace.sp_start +. sp.Trace.sp_dur
                       < parent.Trace.sp_start +. parent.Trace.sp_dur)
                  spans))
        spans)

(* A span closes even when its body raises, at every nesting depth. *)
let prop_exception_safe =
  QCheck.Test.make ~name:"spans close across exceptions" ~count:200
    QCheck.(pair stree_arb small_nat)
    (fun (t, depth) ->
      let tr = fresh () in
      let rec blow d =
        Trace.span tr "boom" (fun () ->
            if d = 0 then failwith "boom" else blow (d - 1))
      in
      (try exec tr t with _ -> ());
      let before = Trace.span_count tr in
      (match blow (depth mod 5) with () -> () | exception Failure _ -> ());
      Trace.open_depth tr = 0
      && Trace.span_count tr = before + (depth mod 5) + 1)

let test_null_noop () =
  let tr = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  Trace.span tr "x" (fun () -> ());
  Trace.begin_span tr "y";
  Trace.end_span tr ();
  Trace.counter tr "c" 3;
  Alcotest.(check int) "no spans" 0 (Trace.span_count tr);
  Alcotest.(check int) "no counters" 0 (List.length (Trace.counters tr))

let test_unbalanced_end () =
  let tr = fresh () in
  Trace.end_span tr ();
  (* must not raise *)
  Trace.begin_span tr "a";
  Trace.end_span tr ();
  Trace.end_span tr ();
  Alcotest.(check int) "one span" 1 (Trace.span_count tr);
  Alcotest.(check int) "balanced" 0 (Trace.open_depth tr)

let test_counters_accumulate () =
  let tr = fresh () in
  Trace.counter tr "b" 2;
  Trace.counter tr "a" 1;
  Trace.counter tr "b" 5;
  Alcotest.(check (list (pair string int)))
    "sorted, summed"
    [ ("a", 1); ("b", 7) ]
    (Trace.counters tr)

(* ---------------------------------------------------------------- *)
(* Chrome trace_event export.                                       *)

let chrome_events tr =
  let j = Json_out.parse (Trace.to_chrome_json ~process_name:"test" tr) in
  Alcotest.(check string)
    "displayTimeUnit" "ms"
    (Json_out.to_str (Json_out.member_exn "displayTimeUnit" j));
  Json_out.to_list (Json_out.member_exn "traceEvents" j)

let test_chrome_json_valid () =
  let tr = fresh () in
  Trace.span tr ~cat:"outer" "a" (fun () ->
      Trace.span tr "b" (fun () -> ());
      Trace.add_args tr [ ("n", Trace.Int 3); ("r", Trace.Float 0.5) ]);
  Trace.counter tr "widgets" 7;
  let events = chrome_events tr in
  (* one metadata + two spans + one counter *)
  Alcotest.(check int) "event count" 4 (List.length events);
  let phase e = Json_out.to_str (Json_out.member_exn "ph" e) in
  (match events with
  | meta :: _ ->
      Alcotest.(check string) "metadata first" "M" (phase meta);
      Alcotest.(check string)
        "process_name" "process_name"
        (Json_out.to_str (Json_out.member_exn "name" meta))
  | [] -> Alcotest.fail "no events");
  List.iter
    (fun e ->
      Alcotest.(check (float 0.0))
        "pid" 1.0
        (Json_out.to_num (Json_out.member_exn "pid" e));
      Alcotest.(check (float 0.0))
        "tid" 1.0
        (Json_out.to_num (Json_out.member_exn "tid" e));
      match phase e with
      | "X" ->
          let ts = Json_out.to_num (Json_out.member_exn "ts" e) in
          let dur = Json_out.to_num (Json_out.member_exn "dur" e) in
          if ts < 0.0 || dur < 0.0 then Alcotest.fail "negative ts/dur"
      | "C" | "M" -> ()
      | ph -> Alcotest.failf "unexpected phase %s" ph)
    events;
  (* span "a" carries the attached args *)
  let a =
    List.find
      (fun e ->
        phase e = "X"
        && Json_out.to_str (Json_out.member_exn "name" e) = "a")
      events
  in
  let args = Json_out.member_exn "args" a in
  Alcotest.(check (float 0.0))
    "int arg" 3.0
    (Json_out.to_num (Json_out.member_exn "n" args));
  Alcotest.(check (float 0.0))
    "float arg" 0.5
    (Json_out.to_num (Json_out.member_exn "r" args))

let prop_chrome_parses =
  QCheck.Test.make ~name:"chrome export of random span trees parses" ~count:100
    stree_arb (fun t ->
      let tr = fresh () in
      exec tr t;
      Trace.counter tr "size" (tree_size t);
      let events = chrome_events tr in
      (* metadata + one X per span + one C counter *)
      List.length events = tree_size t + 2)

let test_json_escaping () =
  let tr = fresh () in
  Trace.span tr "quote\"back\\slash\nnewline" (fun () -> ());
  let events = chrome_events tr in
  let name_of e = Json_out.to_str (Json_out.member_exn "name" e) in
  match
    List.find_opt (fun e -> name_of e <> "process_name") events
  with
  | Some e ->
      Alcotest.(check string)
        "name round-trips" "quote\"back\\slash\nnewline" (name_of e)
  | None -> Alcotest.fail "span event missing"

(* ---------------------------------------------------------------- *)
(* Golden summary of a fixed pipeline run.                          *)

(* With the fake clock each clock read is one tick, so every duration below
   is an exact integer of "seconds" determined solely by the number of spans
   the driver and the front end open. Pinning the full rendering also pins
   the overlay structure: parse, semantic, evaluability, planning, listing,
   then one codegen overlay per evaluator pass (two for the fixture). *)
let golden_summary =
  "trace summary (7 spans, 15.000000 s)\n\
  \  driver.process                    1x  13.000000 s\n\
  \    parse                           1x   1.000000 s\n\
  \    semantic                        1x   1.000000 s\n\
  \    evaluability                    1x   1.000000 s\n\
  \    planning                        1x   1.000000 s\n\
  \    listing                         1x   1.000000 s\n\
  \    codegen pass 1                  1x   1.000000 s\n"

(* Run [f] with [tr] as the ambient tracer, where the driver records its
   overlay spans. *)
let with_tracer tr f =
  Trace.install tr;
  Fun.protect ~finally:(fun () -> Trace.install Trace.null) f

let test_golden_summary () =
  (* warm up first: the ambient tracer would also record the lazily
     built .ag parser and scanner tables *)
  ignore (Linguist.Driver.process_exn ~file:"<warm-up>" Fixtures.sum_grammar);
  let tr = fresh () in
  with_tracer tr (fun () ->
      ignore
        (Linguist.Driver.process_exn ~file:"<golden>" Fixtures.sum_grammar));
  let actual = Format.asprintf "%a" Trace.pp_summary tr in
  Alcotest.(check string) "summary" golden_summary actual

(* Real clock here: the acceptance criterion is that the overlay spans
   account for (nearly) all of the driver's wall time — the gaps are just
   span bookkeeping between overlays. *)
let test_overlay_spans_cover_run () =
  let tr = Trace.create () in
  let artifact =
    with_tracer tr (fun () ->
        Linguist.Driver.process_exn ~file:"<cover>" Fixtures.sum_grammar)
  in
  let root =
    List.find
      (fun (sp : Trace.span) -> String.equal sp.Trace.sp_name "driver.process")
      (Trace.spans tr)
  in
  let overlay_total =
    List.fold_left (fun acc (_, d) -> acc +. d) 0.0 artifact.Linguist.Driver.overlay_seconds
  in
  if overlay_total < 0.8 *. root.Trace.sp_dur then
    Alcotest.failf "overlays cover %.6f of %.6f s" overlay_total
      root.Trace.sp_dur;
  Alcotest.(check int) "six overlays"
    6
    (List.length artifact.Linguist.Driver.overlay_seconds)

(* Per-production evaluation counts reach the evaluator only through a
   tracer installed with [~attr_counts:true]: then the [evals:<tag>]
   arguments of each pass span add up to its [rules] argument; otherwise
   no pass span carries one. *)
let test_attr_counts_sum_to_rules () =
  let t = Lg_languages.Desk_calc.translator () in
  let pass_spans ~attr_counts =
    let tr = Trace.create () in
    Trace.install ~attr_counts tr;
    Fun.protect ~finally:(fun () -> Trace.install Trace.null) (fun () ->
        ignore
          (Linguist.Translator.translate_exn t ~file:"<evals>"
             "x := 10;\nprint x;\ny := x + 2;\nprint y;\n"));
    List.filter
      (fun (sp : Trace.span) ->
        String.length sp.Trace.sp_name > 5
        && String.sub sp.Trace.sp_name 0 5 = "pass ")
      (Trace.spans tr)
  in
  let is_evals (name, _) =
    String.length name > 6 && String.sub name 0 6 = "evals:"
  in
  let int_arg = function Trace.Int n -> n | _ -> Alcotest.fail "not an Int" in
  let counted = pass_spans ~attr_counts:true in
  Alcotest.(check bool) "several passes" true (List.length counted > 1);
  List.iter
    (fun (sp : Trace.span) ->
      let evals = List.filter is_evals sp.Trace.sp_args in
      Alcotest.(check bool)
        (sp.Trace.sp_name ^ " has evals")
        true (evals <> []);
      Alcotest.(check int)
        (sp.Trace.sp_name ^ ": evals sum to rules")
        (int_arg (List.assoc "rules" sp.Trace.sp_args))
        (List.fold_left (fun acc (_, v) -> acc + int_arg v) 0 evals))
    counted;
  List.iter
    (fun (sp : Trace.span) ->
      Alcotest.(check int)
        (sp.Trace.sp_name ^ ": no evals without attr_counts")
        0
        (List.length (List.filter is_evals sp.Trace.sp_args)))
    (pass_spans ~attr_counts:false)

(* ---------------------------------------------------------------- *)
(* Io_stats: the single field table behind add/reset/fields/to_json. *)

let field_names = List.map fst Lg_apt.Io_stats.(fields (create ()))

let stats_of_assoc l =
  let s = Lg_apt.Io_stats.create () in
  List.iter (fun (name, v) -> Lg_apt.Io_stats.set_field s name v) l;
  s

let stats_gen =
  QCheck.Gen.(
    map
      (fun vs -> List.combine field_names vs)
      (flatten_l (List.map (fun _ -> int_bound 1000) field_names)))

let stats_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) l))
    stats_gen

(* The record has exactly as many (immediate int) fields as the field table
   exposes: adding a counter without extending the table fails this test. *)
let test_field_table_complete () =
  let s = Lg_apt.Io_stats.create () in
  Alcotest.(check int)
    "field table covers the whole record"
    (Obj.size (Obj.repr s))
    (List.length (Lg_apt.Io_stats.fields s))

let prop_add_fieldwise =
  QCheck.Test.make ~name:"Io_stats.add is field-wise addition" ~count:200
    QCheck.(pair stats_arb stats_arb)
    (fun (a, b) ->
      let into = stats_of_assoc a in
      Lg_apt.Io_stats.add ~into (stats_of_assoc b);
      Lg_apt.Io_stats.fields into
      = List.map2
          (fun (n, x) (_, y) -> (n, x + y))
          a b)

let prop_add_commutes =
  QCheck.Test.make ~name:"Io_stats.add commutes and associates" ~count:200
    QCheck.(triple stats_arb stats_arb stats_arb)
    (fun (a, b, c) ->
      let sum order =
        let into = Lg_apt.Io_stats.create () in
        List.iter (fun l -> Lg_apt.Io_stats.add ~into (stats_of_assoc l)) order;
        Lg_apt.Io_stats.fields into
      in
      sum [ a; b; c ] = sum [ c; a; b ] && sum [ a; b; c ] = sum [ b; c; a ])

let prop_reset_zeroes =
  QCheck.Test.make ~name:"Io_stats.reset zeroes every field" ~count:200
    stats_arb (fun a ->
      let s = stats_of_assoc a in
      Lg_apt.Io_stats.reset s;
      List.for_all (fun (_, v) -> v = 0) (Lg_apt.Io_stats.fields s))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Io_stats.to_json round-trips every field" ~count:200
    stats_arb (fun a ->
      let s = stats_of_assoc a in
      let j = Json_out.parse (Lg_apt.Io_stats.to_json s) in
      List.for_all
        (fun (name, v) ->
          match Json_out.member name j with
          | Some (Json_out.Num f) -> int_of_float f = v
          | _ -> false)
        (Lg_apt.Io_stats.fields s)
      &&
      (* derived ratio present: null without compression, a number with *)
      match
        (Json_out.member_exn "compression_ratio" j,
         Lg_apt.Io_stats.compression_ratio s)
      with
      | Json_out.Null, None -> true
      | Json_out.Num _, Some _ -> true
      | _ -> false)

let test_set_field_unknown () =
  let s = Lg_apt.Io_stats.create () in
  match Lg_apt.Io_stats.set_field s "no_such_counter" 1 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "trace"
    [
      ( "spans",
        [
          QCheck_alcotest.to_alcotest prop_balanced;
          QCheck_alcotest.to_alcotest prop_nested;
          QCheck_alcotest.to_alcotest prop_exception_safe;
          Alcotest.test_case "null tracer is inert" `Quick test_null_noop;
          Alcotest.test_case "unbalanced end_span is harmless" `Quick
            test_unbalanced_end;
          Alcotest.test_case "counters accumulate sorted" `Quick
            test_counters_accumulate;
        ] );
      ( "chrome export",
        [
          Alcotest.test_case "structure and args" `Quick test_chrome_json_valid;
          QCheck_alcotest.to_alcotest prop_chrome_parses;
          Alcotest.test_case "names escape into valid JSON" `Quick
            test_json_escaping;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "golden summary (fake clock)" `Quick
            test_golden_summary;
          Alcotest.test_case "overlay spans cover the driver run" `Quick
            test_overlay_spans_cover_run;
          Alcotest.test_case "evals: counts sum to rules" `Quick
            test_attr_counts_sum_to_rules;
        ] );
      ( "io_stats",
        [
          Alcotest.test_case "field table covers the record" `Quick
            test_field_table_complete;
          QCheck_alcotest.to_alcotest prop_add_fieldwise;
          QCheck_alcotest.to_alcotest prop_add_commutes;
          QCheck_alcotest.to_alcotest prop_reset_zeroes;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "set_field rejects unknown names" `Quick
            test_set_field_unknown;
        ] );
    ]
