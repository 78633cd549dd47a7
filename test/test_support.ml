(* Tests for the support substrate: interner, locations, diagnostics and the
   value / list-processing package. *)
open Lg_support

let check_value = Alcotest.testable Value.pp Value.equal

(* ----- interner ----- *)

let test_intern_roundtrip () =
  let t = Interner.create () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  let a' = Interner.intern t "alpha" in
  Alcotest.(check int) "same name for same text" a a';
  Alcotest.(check bool) "distinct names" true (a <> b);
  Alcotest.(check string) "text back" "alpha" (Interner.text t a);
  Alcotest.(check string) "text back" "beta" (Interner.text t b);
  Alcotest.(check int) "count" 2 (Interner.count t)

let test_intern_growth () =
  let t = Interner.create ~initial_size:1 () in
  let names = List.init 300 (fun i -> Interner.intern t (string_of_int i)) in
  List.iteri
    (fun i n ->
      Alcotest.(check string) "growth keeps texts" (string_of_int i)
        (Interner.text t n))
    names;
  Alcotest.(check int) "count" 300 (Interner.count t)

let test_intern_foreign () =
  let t = Interner.create () in
  Alcotest.check_raises "foreign name rejected"
    (Invalid_argument "Interner.text: foreign name") (fun () ->
      ignore (Interner.text t 0))

let test_intern_find_opt () =
  let t = Interner.create () in
  let a = Interner.intern t "x" in
  Alcotest.(check (option int)) "found" (Some a) (Interner.find_opt t "x");
  Alcotest.(check (option int)) "absent" None (Interner.find_opt t "y");
  Alcotest.(check int) "find_opt does not allocate" 1 (Interner.count t)

(* ----- loc ----- *)

let test_advance () =
  let p = Loc.start_pos in
  let p = Loc.advance p 'a' in
  Alcotest.(check int) "col" 2 p.Loc.col;
  let p = Loc.advance p '\n' in
  Alcotest.(check int) "line" 2 p.Loc.line;
  Alcotest.(check int) "col reset" 1 p.Loc.col;
  Alcotest.(check int) "offset" 2 p.Loc.offset

let test_merge_spans () =
  let p0 = Loc.start_pos in
  let p1 = Loc.advance p0 'a' in
  let p2 = Loc.advance p1 'b' in
  let s1 = Loc.span "f" p0 p1 and s2 = Loc.span "f" p1 p2 in
  let m = Loc.merge s2 s1 in
  Alcotest.(check int) "start" 0 m.Loc.start_p.Loc.offset;
  Alcotest.(check int) "end" 2 m.Loc.end_p.Loc.offset

(* ----- diag ----- *)

let test_diag_order_and_counts () =
  let c = Diag.create () in
  let p0 = Loc.start_pos in
  let p5 = { Loc.line = 5; col = 1; offset = 50 } in
  Diag.error c (Loc.span "f" p5 p5) "later error";
  Diag.warning c (Loc.span "f" p0 p0) "early warning";
  Alcotest.(check int) "errors" 1 (Diag.error_count c);
  Alcotest.(check int) "total" 2 (Diag.count c);
  Alcotest.(check bool) "not ok" false (Diag.is_ok c);
  match Diag.to_list c with
  | [ first; second ] ->
      Alcotest.(check string) "sorted by position" "early warning"
        first.Diag.message;
      Alcotest.(check string) "then later" "later error" second.Diag.message
  | _ -> Alcotest.fail "expected two diagnostics"

(* ----- values ----- *)

let test_set_canonical () =
  let s1 = Value.set_of_list [ Value.Int 3; Value.Int 1; Value.Int 3 ] in
  let s2 = Value.set_of_list [ Value.Int 1; Value.Int 3 ] in
  Alcotest.check check_value "dedup + sort" s2 s1;
  Alcotest.(check bool) "mem" true (Value.set_mem (Value.Int 3) s1);
  Alcotest.(check bool) "not mem" false (Value.set_mem (Value.Int 2) s1)

let test_set_union_laws () =
  let a = Value.set_of_list [ Value.Int 1; Value.Int 2 ] in
  let b = Value.set_of_list [ Value.Int 2; Value.Int 3 ] in
  Alcotest.check check_value "commutative" (Value.set_union a b)
    (Value.set_union b a);
  Alcotest.check check_value "idempotent" a (Value.set_union a a)

let test_pf () =
  let pf =
    Value.pf_bind ~key:(Value.Str "x") ~data:(Value.Int 1)
      (Value.pf_bind ~key:(Value.Str "y") ~data:(Value.Int 2) (Value.Pf []))
  in
  Alcotest.check check_value "eval x" (Value.Int 1)
    (Value.pf_eval pf (Value.Str "x"));
  Alcotest.check check_value "eval missing is bottom" Value.Bottom
    (Value.pf_eval pf (Value.Str "z"));
  let pf2 = Value.pf_bind ~key:(Value.Str "x") ~data:(Value.Int 9) pf in
  Alcotest.check check_value "rebind shadows" (Value.Int 9)
    (Value.pf_eval pf2 (Value.Str "x"));
  Alcotest.check check_value "domain"
    (Value.set_of_list [ Value.Str "x"; Value.Str "y" ])
    (Value.pf_domain pf2)

let test_stdlib_lookup_normalization () =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "lookup %S" name)
        true
        (Value.lookup_function name <> None))
    [ "union$setof"; "UnionSetof"; "union_setof"; "UNIONSETOF" ];
  Alcotest.(check bool) "unknown" true (Value.lookup_function "frobnicate" = None)

let test_stdlib_semantics () =
  Alcotest.check check_value "incrifzero fires" (Value.Int 5)
    (Value.apply "IncrIfZero" [ Value.Int 0; Value.Int 4 ]);
  Alcotest.check check_value "incrifzero passes" (Value.Int 4)
    (Value.apply "IncrIfZero" [ Value.Int 7; Value.Int 4 ]);
  Alcotest.check check_value "isin" (Value.Bool true)
    (Value.apply "IsIn"
       [ Value.Int 2; Value.set_of_list [ Value.Int 1; Value.Int 2 ] ]);
  Alcotest.check check_value "cons" (Value.List [ Value.Int 1; Value.Int 2 ])
    (Value.apply "cons" [ Value.Int 1; Value.List [ Value.Int 2 ] ]);
  Alcotest.check check_value "uninterpreted"
    (Value.Term ("WidthOf", [ Value.Int 3 ]))
    (Value.apply "WidthOf" [ Value.Int 3 ])

let test_consmsg_skips_nomsg () =
  let rest = Value.List [] in
  Alcotest.check check_value "no$msg adds nothing" rest
    (Value.apply "cons$msg" [ Value.Int 3; Value.Bottom; Value.Bottom; rest ]);
  match Value.apply "cons$msg" [ Value.Int 3; Value.Str "bad"; Value.Bottom; rest ] with
  | Value.List [ Value.Term ("msg", _) ] -> ()
  | v -> Alcotest.failf "unexpected %a" Value.pp v

let test_constants () =
  Alcotest.check check_value "nomsg" Value.Bottom
    (Option.get (Value.lookup_constant "no$msg"));
  Alcotest.check check_value "emptyset" (Value.Set [])
    (Option.get (Value.lookup_constant "EmptySet"))

(* Round-trip of the binary encoding, exhaustively on a nest of shapes and
   randomly via qcheck. *)

let rec value_gen depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        return Value.Bottom;
        map (fun n -> Value.Int n) small_signed_int;
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.Str s) (string_size (int_bound 12));
        map (fun n -> Value.Name n) (int_bound 1000);
      ]
  else
    let sub = value_gen (depth - 1) in
    oneof
      [
        value_gen 0;
        map (fun l -> Value.List l) (list_size (int_bound 4) sub);
        map (fun l -> Value.set_of_list l) (list_size (int_bound 4) sub);
        map
          (fun l ->
            List.fold_left
              (fun pf (k, v) -> Value.pf_bind ~key:k ~data:v pf)
              (Value.Pf []) l)
          (list_size (int_bound 3) (pair sub sub));
        map2
          (fun name args -> Value.Term (name, args))
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
          (list_size (int_bound 3) sub);
      ]

let arbitrary_value = QCheck.make ~print:Value.to_string (value_gen 3)

let prop_encode_roundtrip =
  QCheck.Test.make ~name:"value encode/decode roundtrip" ~count:500
    arbitrary_value (fun v ->
      let buf = Buffer.create 64 in
      Value.encode buf v;
      let s = Buffer.contents buf in
      let v', pos = Value.decode s 0 in
      Value.equal v v' && pos = String.length s
      && Value.encoded_size v = String.length s)

let prop_compare_total_order =
  QCheck.Test.make ~name:"value compare is antisymmetric" ~count:300
    (QCheck.pair arbitrary_value arbitrary_value) (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0))

let prop_set_union_assoc =
  QCheck.Test.make ~name:"set union associative" ~count:300
    (QCheck.triple arbitrary_value arbitrary_value arbitrary_value)
    (fun (a, b, c) ->
      let s x = Value.set_of_list [ x ] in
      Value.equal
        (Value.set_union (s a) (Value.set_union (s b) (s c)))
        (Value.set_union (Value.set_union (s a) (s b)) (s c)))

(* ----- eventlog ----- *)

let test_eventlog_null () =
  Alcotest.(check bool) "disabled" false (Eventlog.enabled Eventlog.null);
  Alcotest.(check bool) "create enables" true (Eventlog.enabled (Eventlog.create ()));
  (* a request that kept no trace still dumps its typed failure *)
  let doc =
    Eventlog.postmortem_json Trace.null ~job:"j" ~reason:"worker_crashed"
      ~exit_code:51 ~detail:"boom" ~trace:""
  in
  match Json_out.member_exn "events" doc with
  | Json_out.Arr [ ev ] ->
      Alcotest.(check string) "only the failure" {|"failed"|}
        (Json_out.to_string (Json_out.member_exn "kind" ev))
  | _ -> Alcotest.fail "expected exactly the failed event"

(* the fields of a dumped event, by name *)
let ev_str ev name =
  match Json_out.member_exn name ev with
  | Json_out.Str s -> s
  | _ -> Alcotest.fail (name ^ " should be a string")

let ev_num ev name =
  match Json_out.member_exn name ev with
  | Json_out.Num f -> f
  | _ -> Alcotest.fail (name ^ " should be a number")

let dump_events doc =
  match Json_out.member_exn "events" doc with
  | Json_out.Arr events -> events
  | _ -> Alcotest.fail "events should be an array"

(* A synthetic serve request on a fake clock whose run span is still
   open, as when a deadline fires mid-run: the dump reads the documented
   lifecycle off the spans, open ones included, and ends in [failed]. *)
let test_eventlog_derivation () =
  let tick = ref 100.0 in
  let clock () =
    tick := !tick +. 1.0;
    !tick
  in
  let tr = Trace.create ~clock () in
  Trace.begin_span tr ~cat:"request" "request:job";
  Trace.begin_span tr ~cat:"queue" "queue.wait";
  Trace.end_span tr
    ~args:
      [
        ("op", Trace.Str "translate");
        ("file", Trace.Str "a.calc");
        ("lane", Trace.Str "interactive");
      ]
    ();
  Trace.begin_span tr ~cat:"serve" "service";
  Trace.begin_span tr ~cat:"serve" "run";
  Trace.span tr ~cat:"session" "session.build" (fun () -> ());
  Trace.span tr ~cat:"engine" "engine.run" (fun () ->
      Trace.span tr ~cat:"pass" "pass 1" (fun () -> ());
      Trace.span tr ~cat:"pass" "pass 2" (fun () -> ()));
  let doc =
    Eventlog.postmortem_json tr ~job:"j1" ~reason:"deadline_exceeded"
      ~exit_code:50 ~detail:"deadline exceeded" ~trace:"t1"
  in
  let events = dump_events doc in
  Alcotest.(check (list string))
    "documented kind sequence"
    [ "submitted"; "dequeued"; "started"; "session.build"; "pass"; "pass"; "failed" ]
    (List.map (fun ev -> ev_str ev "kind") events);
  Alcotest.(check (list int))
    "seq numbers the dump from 0" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.map (fun ev -> int_of_float (ev_num ev "seq")) events);
  let times = List.map (fun ev -> ev_num ev "time") events in
  Alcotest.(check bool)
    "time is monotone" true
    (List.for_all2 ( < ) (List.rev (List.tl (List.rev times))) (List.tl times));
  let nth = List.nth events in
  (* epoch 101; queue.wait opens at 103 and closes at 104; run opens at 106 *)
  Alcotest.(check (float 1e-9)) "submitted at the queue.wait open" 103.0
    (ev_num (nth 0) "time");
  Alcotest.(check (float 1e-9)) "dequeued at its close" 104.0
    (ev_num (nth 1) "time");
  Alcotest.(check (float 1e-9)) "queue wait is the span" 1.0
    (ev_num (nth 1) "queue_wait_seconds");
  Alcotest.(check (float 1e-9)) "started at the open run span" 106.0
    (ev_num (nth 2) "time");
  Alcotest.(check (list string))
    "submitted carries the queue.wait args"
    [ "translate"; "a.calc"; "interactive" ]
    (List.map (ev_str (nth 0)) [ "op"; "file"; "lane" ]);
  Alcotest.(check (list string))
    "passes in order" [ "pass 1"; "pass 2" ]
    (List.map (fun i -> ev_str (nth i) "name") [ 4; 5 ]);
  Alcotest.(check (float 0.0)) "failed carries the exit" 50.0
    (ev_num (nth 6) "exit");
  Alcotest.(check string) "failed carries the error" "deadline exceeded"
    (ev_str (nth 6) "error");
  List.iter
    (fun ev ->
      Alcotest.(check (pair string string))
        "job and trace ids on every event" ("j1", "t1")
        (ev_str ev "job", ev_str ev "trace"))
    events

let test_eventlog_postmortem () =
  let tr = Trace.create () in
  Trace.begin_span tr ~cat:"queue" "queue.wait";
  Trace.end_span tr ();
  let doc =
    Eventlog.postmortem_json tr ~job:"boom" ~reason:"worker_crashed"
      ~exit_code:51 ~detail:"worker crashed: Out_of_memory" ~trace:"abc123"
  in
  (* the dump must survive a JSON round trip and carry the typed fields *)
  let j = Json_out.parse (Json_out.to_string ~pretty:true doc) in
  let str name =
    match Json_out.member_exn name j with
    | Json_out.Str s -> s
    | _ -> Alcotest.fail (name ^ " should be a string")
  in
  Alcotest.(check int) "version" 1
    (Json_out.to_int (Json_out.member_exn "linguist_postmortem" j));
  Alcotest.(check string) "job" "boom" (str "job");
  Alcotest.(check string) "reason" "worker_crashed" (str "reason");
  Alcotest.(check string) "detail" "worker crashed: Out_of_memory" (str "detail");
  Alcotest.(check string) "trace" "abc123" (str "trace");
  (match Json_out.member_exn "exit" j with
  | Json_out.Num f -> Alcotest.(check (float 0.0)) "exit code" 51.0 f
  | _ -> Alcotest.fail "exit should be a number");
  Alcotest.(check (list string))
    "submitted, dequeued, failed" [ "submitted"; "dequeued"; "failed" ]
    (List.map (fun ev -> ev_str ev "kind") (dump_events j))

(* ----- json ----- *)

let test_json_nesting_bound () =
  let nested n = String.make n '[' ^ String.make n ']' in
  (match Json_out.parse (nested Json_out.max_depth) with
  | _ -> ()
  | exception Failure msg -> Alcotest.failf "max_depth refused: %s" msg);
  List.iter
    (fun doc ->
      match Json_out.parse doc with
      | _ -> Alcotest.fail "nesting past max_depth accepted"
      | exception Failure _ -> ())
    [
      nested (Json_out.max_depth + 1);
      String.concat "" (List.init (Json_out.max_depth + 1) (fun _ -> {|{"a":|}));
    ]

let () =
  Alcotest.run "support"
    [
      ( "eventlog",
        [
          Alcotest.test_case "null is inert" `Quick test_eventlog_null;
          Alcotest.test_case "derived from the request trace" `Quick
            test_eventlog_derivation;
          Alcotest.test_case "postmortem shape" `Quick test_eventlog_postmortem;
        ] );
      ( "interner",
        [
          Alcotest.test_case "roundtrip" `Quick test_intern_roundtrip;
          Alcotest.test_case "growth" `Quick test_intern_growth;
          Alcotest.test_case "foreign name" `Quick test_intern_foreign;
          Alcotest.test_case "find_opt" `Quick test_intern_find_opt;
        ] );
      ( "loc",
        [
          Alcotest.test_case "advance" `Quick test_advance;
          Alcotest.test_case "merge" `Quick test_merge_spans;
        ] );
      ("diag", [ Alcotest.test_case "order and counts" `Quick test_diag_order_and_counts ]);
      ("json", [ Alcotest.test_case "nesting bound" `Quick test_json_nesting_bound ]);
      ( "value",
        [
          Alcotest.test_case "set canonical" `Quick test_set_canonical;
          Alcotest.test_case "set union laws" `Quick test_set_union_laws;
          Alcotest.test_case "partial functions" `Quick test_pf;
          Alcotest.test_case "stdlib lookup" `Quick test_stdlib_lookup_normalization;
          Alcotest.test_case "stdlib semantics" `Quick test_stdlib_semantics;
          Alcotest.test_case "cons$msg" `Quick test_consmsg_skips_nomsg;
          Alcotest.test_case "constants" `Quick test_constants;
          QCheck_alcotest.to_alcotest prop_encode_roundtrip;
          QCheck_alcotest.to_alcotest prop_compare_total_order;
          QCheck_alcotest.to_alcotest prop_set_union_assoc;
        ] );
    ]
