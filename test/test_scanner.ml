(* Tests for the scanner generator and table-driven scanning engine. *)
open Lg_scanner
open Lg_support

let demo_spec () =
  Spec.make
    ~keywords:[ ("if", "IF"); ("then", "THEN"); ("else", "ELSE") ]
    ~keyword_rules:[ "IDENT" ]
    [
      ("WS", "[ \\t\\n]+", Spec.Skip);
      ("COMMENT", "#[^\\n]*", Spec.Skip);
      ("NUMBER", "[0-9]+", Spec.Token);
      ("IDENT", "[a-zA-Z][a-zA-Z0-9_]*", Spec.Token);
      ("PLUS", "\\+", Spec.Token);
      ("ASSIGN", ":=", Spec.Token);
      ("COLON", ":", Spec.Token);
    ]

let scan_kinds input =
  let tables = Tables.compile (demo_spec ()) in
  let diag = Diag.create () in
  let tokens = Engine.scan tables ~file:"t" ~diag input in
  (List.map (fun t -> t.Engine.kind) tokens, diag)

let test_basic_scan () =
  let kinds, diag = scan_kinds "x := 42 + y1" in
  Alcotest.(check (list string)) "kinds"
    [ "IDENT"; "ASSIGN"; "NUMBER"; "PLUS"; "IDENT" ]
    kinds;
  Alcotest.(check bool) "no errors" true (Diag.is_ok diag)

let test_keywords () =
  let kinds, _ = scan_kinds "if iffy then x" in
  Alcotest.(check (list string)) "keyword vs identifier"
    [ "IF"; "IDENT"; "THEN"; "IDENT" ]
    kinds

let test_longest_match () =
  let kinds, _ = scan_kinds "x:=1 y:2" in
  Alcotest.(check (list string)) "':=' beats ':'"
    [ "IDENT"; "ASSIGN"; "NUMBER"; "IDENT"; "COLON"; "NUMBER" ]
    kinds

let test_skip_and_comments () =
  let kinds, _ = scan_kinds "a # comment to end of line\nb" in
  Alcotest.(check (list string)) "comments skipped" [ "IDENT"; "IDENT" ] kinds

let test_error_recovery () =
  let kinds, diag = scan_kinds "a @@ b" in
  Alcotest.(check (list string)) "tokens around errors" [ "IDENT"; "IDENT" ] kinds;
  Alcotest.(check int) "two bad characters reported" 2 (Diag.error_count diag)

let test_positions () =
  let tables = Tables.compile (demo_spec ()) in
  let diag = Diag.create () in
  let tokens = Engine.scan tables ~file:"t" ~diag "ab\ncd" in
  match tokens with
  | [ a; b ] ->
      Alcotest.(check int) "first line" 1 a.Engine.span.Loc.start_p.Loc.line;
      Alcotest.(check int) "second line" 2 b.Engine.span.Loc.start_p.Loc.line;
      Alcotest.(check int) "second col" 1 b.Engine.span.Loc.start_p.Loc.col;
      Alcotest.(check string) "lexeme" "cd" b.Engine.lexeme
  | _ -> Alcotest.fail "expected two tokens"

let test_empty_pattern_rejected () =
  match Spec.make [ ("BAD", "a*", Spec.Token) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nullable pattern must be rejected"

let test_duplicate_rule_rejected () =
  match Spec.make [ ("A", "a", Spec.Token); ("A", "b", Spec.Token) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate rule must be rejected"

let test_line_count () =
  Alcotest.(check int) "empty" 0 (Engine.line_count "");
  Alcotest.(check int) "no newline" 1 (Engine.line_count "abc");
  Alcotest.(check int) "trailing newline" 2 (Engine.line_count "a\nb\n");
  Alcotest.(check int) "fragment" 3 (Engine.line_count "a\nb\nc")

let test_table_size_positive () =
  let tables = Tables.compile (demo_spec ()) in
  Alcotest.(check bool) "size accounted" true (Tables.size_bytes tables > 0)

(* Property: scanning then concatenating lexemes and skipped gaps
   reconstructs the input; spans are contiguous and sorted. *)
let prop_spans_sorted =
  QCheck.Test.make ~name:"token spans are sorted and within input" ~count:200
    (QCheck.make
       ~print:(fun s -> s)
       QCheck.Gen.(
         string_size ~gen:(oneof [ char_range 'a' 'z'; return ' '; return '1' ])
           (int_bound 40)))
    (fun input ->
      let tables = Tables.compile (demo_spec ()) in
      let diag = Diag.create () in
      let tokens = Engine.scan tables ~file:"t" ~diag input in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            a.Engine.span.Loc.end_p.Loc.offset <= b.Engine.span.Loc.start_p.Loc.offset
            && sorted rest
        | _ -> true
      in
      sorted tokens
      && List.for_all
           (fun t ->
             let s = t.Engine.span in
             s.Loc.end_p.Loc.offset - s.Loc.start_p.Loc.offset
             = String.length t.Engine.lexeme
             && String.sub input s.Loc.start_p.Loc.offset (String.length t.Engine.lexeme)
                = t.Engine.lexeme)
           tokens)

(* The engine before its scan loop stopped allocating: [exec_longest]'s
   option result, one position record per character folded over the
   lexeme, and a lexeme cut for every match. The engine must produce the
   same tokens and report the same errors. *)
let reference_scan tables ~file ~diag input =
  let dfa = Tables.dfa tables in
  let n = String.length input in
  let rec go pos acc =
    if pos.Loc.offset >= n then List.rev acc
    else
      match Lg_regex.Dfa.exec_longest dfa input pos.Loc.offset with
      | None ->
          let c = input.[pos.Loc.offset] in
          let next = Loc.advance pos c in
          Diag.error diag (Loc.span file pos next) "illegal character %C" c;
          go next acc
      | Some (rule_id, end_offset) ->
          let rule = Tables.rule_of_id tables rule_id in
          let lexeme = String.sub input pos.Loc.offset (end_offset - pos.Loc.offset) in
          let next = String.fold_left Loc.advance pos lexeme in
          let acc =
            match rule.Spec.action with
            | Spec.Skip -> acc
            | Spec.Token ->
                let kind = Tables.keyword_kind tables ~rule_name:rule.Spec.name ~lexeme in
                { Engine.kind; lexeme; span = Loc.span file pos next } :: acc
          in
          go next acc
  in
  go Loc.start_pos []

let prop_matches_reference =
  QCheck.Test.make ~name:"tokens and errors match the fold-based reference"
    ~count:300
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "%S" s)
       QCheck.Gen.(
         string_size
           ~gen:
             (frequency
                [
                  (6, char_range 'a' 'z');
                  (2, char_range '0' '9');
                  (2, oneofl [ ' '; '\n'; '\t'; '\n' ]);
                  (1, oneofl [ '+'; ':'; '='; '#' ]);
                  (1, oneofl [ '@'; '$'; '\000'; '\255' ]);
                ])
           (int_bound 120)))
    (fun input ->
      let tables = Tables.compile (demo_spec ()) in
      let triples tokens =
        List.map (fun t -> (t.Engine.kind, t.Engine.lexeme, t.Engine.span)) tokens
      in
      let diag = Diag.create () and want_diag = Diag.create () in
      let got = Engine.scan tables ~file:"t" ~diag input in
      let want = reference_scan tables ~file:"t" ~diag:want_diag input in
      triples got = triples want
      && Format.asprintf "%a" Diag.pp_all diag
         = Format.asprintf "%a" Diag.pp_all want_diag)

let () =
  Alcotest.run "scanner"
    [
      ( "engine",
        [
          Alcotest.test_case "basic" `Quick test_basic_scan;
          Alcotest.test_case "keywords" `Quick test_keywords;
          Alcotest.test_case "longest match" `Quick test_longest_match;
          Alcotest.test_case "skip rules" `Quick test_skip_and_comments;
          Alcotest.test_case "error recovery" `Quick test_error_recovery;
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "line count" `Quick test_line_count;
          QCheck_alcotest.to_alcotest prop_spans_sorted;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
      ( "spec",
        [
          Alcotest.test_case "empty pattern rejected" `Quick test_empty_pattern_rejected;
          Alcotest.test_case "duplicate rejected" `Quick test_duplicate_rule_rejected;
          Alcotest.test_case "table size" `Quick test_table_size_positive;
        ] );
    ]
