(* Tests for the AG front end: lexer, parser, semantic analysis, implicit
   copy-rules — every diagnostic in Check has a test here. *)
open Linguist

let parse_errors src =
  let diag = Lg_support.Diag.create () in
  match Ag_parse.parse ~file:"<t>" ~diag src with
  | Some _ when Lg_support.Diag.is_ok diag -> []
  | _ ->
      List.map
        (fun (d : Lg_support.Diag.t) -> d.message)
        (Lg_support.Diag.to_list diag)

(* ----- parsing ----- *)

let test_parse_knuth () =
  let spec =
    Ag_parse.parse_exn ~file:"<t>" Lg_languages.Knuth_binary.ag_source
  in
  Alcotest.(check string) "grammar name" "KnuthBinary" spec.Ag_ast.name;
  let prods =
    List.concat_map
      (function Ag_ast.Sec_productions ps -> ps | _ -> [])
      spec.Ag_ast.sections
  in
  Alcotest.(check int) "productions" 5 (List.length prods)

(* a construct's position covers its parts, in either order *)
let test_merge_positions () =
  let open Lg_support in
  let p0 = Loc.start_pos in
  let p1 = Loc.advance p0 'a' in
  let p2 = Loc.advance p1 'b' in
  let a = Ag_ast.pos_of_span (Loc.span "f" p0 p1)
  and b = Ag_ast.pos_of_span (Loc.span "f" p1 p2) in
  let m = Ag_ast.merge b a in
  Alcotest.(check int) "start" 0 (Ag_ast.pos_start m);
  Alcotest.(check int) "end" 2 (Ag_ast.pos_stop m)

let test_parse_multi_target () =
  let spec =
    Ag_parse.parse_exn ~file:"<t>"
      {|
grammar M;
nonterminals a has syn X : t, syn Y : t; end
limbs L; end
productions
  a ::= -> L : a.X, a.Y = if true then 1, 2 else 3, 4 endif;
end
|}
  in
  let prods =
    List.concat_map
      (function Ag_ast.Sec_productions ps -> ps | _ -> [])
      spec.Ag_ast.sections
  in
  match prods with
  | [ { Ag_ast.sems = [ { Ag_ast.targets; rhs = Ag_ast.Eif (branches, els, _); _ } ]; _ } ]
    ->
      Alcotest.(check int) "two targets" 2 (List.length targets);
      Alcotest.(check int) "one branch" 1 (List.length branches);
      Alcotest.(check int) "two else values" 2 (List.length els)
  | _ -> Alcotest.fail "unexpected parse shape"

let test_parse_elsif_chain () =
  let spec =
    Ag_parse.parse_exn ~file:"<t>"
      {|
grammar M;
nonterminals a has syn X : t; end
limbs L; end
productions
  a ::= -> L : a.X = if 1 = 2 then 1 elsif 2 = 3 then 2 elsif 3 = 4 then 3 else 4 endif;
end
|}
  in
  let prods =
    List.concat_map
      (function Ag_ast.Sec_productions ps -> ps | _ -> [])
      spec.Ag_ast.sections
  in
  match prods with
  | [ { Ag_ast.sems = [ { Ag_ast.rhs = Ag_ast.Eif (branches, _, _); _ } ]; _ } ] ->
      Alcotest.(check int) "three branches" 3 (List.length branches)
  | _ -> Alcotest.fail "unexpected parse shape"

let test_parse_precedence () =
  (* a + b = c parses as (a + b) = c; and binds tighter than or *)
  let spec =
    Ag_parse.parse_exn ~file:"<t>"
      {|
grammar M;
nonterminals a has syn X : t, syn B : t, syn C : t; end
limbs L; end
productions
  a ::= -> L :
    a.X = if a.B + 1 = a.C or true and false then 1 else 0 endif,
    a.B = 0, a.C = 0;
end
|}
  in
  ignore spec

let test_parse_error_cases () =
  List.iter
    (fun src ->
      match parse_errors src with
      | [] -> Alcotest.failf "expected a syntax error for %s" src
      | _ -> ())
    [
      "grammar X";  (* missing semicolon *)
      "grammar X; terminals end";  (* empty section *)
      "grammar X; productions a ::= b end";  (* missing ; after production *)
      "grammar X; nonterminals a has syn X; end";  (* missing type *)
      "grammar X; limbs L; end productions a ::= -> L : a.X = (1 ; end";
      "grammar X; productions a ::= -> L : a.X = 1 + if true then 1 else 2 endif; end";
    ]

let test_strip_suffix () =
  Alcotest.(check (pair string (option int))) "expr1" ("expr", Some 1)
    (Ag_ast.strip_occurrence_suffix "expr1");
  Alcotest.(check (pair string (option int))) "no suffix" ("expr", None)
    (Ag_ast.strip_occurrence_suffix "expr");
  Alcotest.(check (pair string (option int))) "all digits" ("123", None)
    (Ag_ast.strip_occurrence_suffix "123");
  Alcotest.(check (pair string (option int))) "multi-digit" ("x", Some 12)
    (Ag_ast.strip_occurrence_suffix "x12")

let test_pp_roundtrip () =
  (* Printing an expression and re-parsing inside a tiny grammar gives the
     same AST shape (drives Listing's implicit-copy printing). *)
  let wrap e = Printf.sprintf
    "grammar M; nonterminals a has syn X : t, syn B : t; end limbs L; end productions a ::= -> L : a.X = %s, a.B = 0; end" e
  in
  List.iter
    (fun src_expr ->
      let spec = Ag_parse.parse_exn ~file:"<t>" (wrap src_expr) in
      let rhs =
        List.concat_map
          (function Ag_ast.Sec_productions ps -> ps | _ -> [])
          spec.Ag_ast.sections
        |> (function [ p ] -> p.Ag_ast.sems | _ -> [])
        |> (function { Ag_ast.rhs; _ } :: _ -> rhs | [] -> Alcotest.fail "no sem")
      in
      let printed = Format.asprintf "%a" Ag_ast.pp_expr rhs in
      let spec2 = Ag_parse.parse_exn ~file:"<t>" (wrap printed) in
      let rhs2 =
        List.concat_map
          (function Ag_ast.Sec_productions ps -> ps | _ -> [])
          spec2.Ag_ast.sections
        |> (function [ p ] -> p.Ag_ast.sems | _ -> [])
        |> (function { Ag_ast.rhs; _ } :: _ -> rhs | [] -> Alcotest.fail "no sem")
      in
      let printed2 = Format.asprintf "%a" Ag_ast.pp_expr rhs2 in
      Alcotest.(check string) src_expr printed printed2)
    [
      "1 + 2 - 3";
      "F(a.B, 7, \"s\")";
      "if a.B = 1 then 2 else 3 endif";
      "not (true or false) and 1 < 2";
      "-a.B + 4";
    ]

let test_multiple_syntax_errors_reported () =
  (* overlay 1 reports every syntax error, with panic-mode recovery *)
  let diag = Lg_support.Diag.create () in
  let src =
    "grammar X;\nroot a b;\nnonterminals a has syn P : t; ; end\nproductions\n  a ::= -> ;\nend\n"
  in
  (match Ag_parse.parse ~file:"<t>" ~diag src with
  | Some _ -> Alcotest.fail "must fail"
  | None -> ());
  Alcotest.(check bool) "several errors collected" true
    (Lg_support.Diag.error_count diag >= 2)

(* The paper's Figure 5 shape: one semantic function defining three
   occurrences, whose else-branch mixes a plain expression with a nested
   conditional producing the remaining two values. *)
let test_figure5_multi_target () =
  let src =
    {|
grammar Fig5;
root a;
terminals K has intrinsic V : int; end
nonterminals
  a has syn X : t, syn Y : t, syn Z : t;
end
limbs L; end
productions
  a ::= K -> L :
    a.X, a.Y, a.Z =
      if K.V = 0 then 1, 2, 3
      else K.V + 10,
           if K.V = 1 then 20, 30 else 21, 31 endif
      endif;
end
|}
  in
  let ir = Fixtures.ir_of_source src in
  let plan = Driver.plan_of_ir ir in
  let run v =
    let k_sym =
      (Array.to_list ir.Ir.symbols
      |> List.find (fun (s : Ir.symbol) -> s.Ir.s_name = "K"))
        .Ir.s_id
    in
    let tree =
      Lg_apt.Tree.interior ~prod:0 ~sym:ir.Ir.root
        ~children:[ Lg_apt.Tree.leaf ~sym:k_sym ~attrs:[| Lg_support.Value.Int v |] ]
    in
    let engine, oracle, _ = Fixtures.run_both plan tree in
    List.iter2
      (fun (n, v1) (_, v2) ->
        Alcotest.check Fixtures.check_value (Printf.sprintf "V=%d %s" v n) v2 v1)
      engine.Engine.outputs oracle.Demand.outputs;
    List.map snd engine.Engine.outputs
  in
  Alcotest.(check (list Fixtures.check_value)) "V=0 takes branch 1"
    Lg_support.Value.[ Int 1; Int 2; Int 3 ]
    (run 0);
  Alcotest.(check (list Fixtures.check_value)) "V=1 nested then"
    Lg_support.Value.[ Int 11; Int 20; Int 30 ]
    (run 1);
  Alcotest.(check (list Fixtures.check_value)) "V=5 nested else"
    Lg_support.Value.[ Int 15; Int 21; Int 31 ]
    (run 5)

(* ----- semantic analysis: the diagnostic catalog ----- *)

let test_check_diagnostics () =
  let cases =
    [
      ( "duplicate symbol",
        "grammar X; terminals T; end nonterminals T; end productions T ::= ; end",
        "duplicate declaration" );
      ( "duplicate attribute",
        "grammar X; nonterminals a has syn P : t, syn P : t; end productions a ::= ; end",
        "duplicate attribute" );
      ( "inh on terminal",
        "grammar X; terminals T has inh P : t; end nonterminals a; end productions a ::= T; end",
        "must be intrinsic" );
      ( "intrinsic on nonterminal",
        "grammar X; nonterminals a has intrinsic P : t; end productions a ::= ; end",
        "intrinsic attributes belong to terminals" );
      ( "plain on nonterminal",
        "grammar X; nonterminals a has P : t; end productions a ::= ; end",
        "must be declared inh or syn" );
      ( "kind on limb attr",
        "grammar X; nonterminals a; end limbs L has syn P : t; end productions a ::= -> L; end",
        "takes no inh/syn/intrinsic marker" );
      ( "limb in rhs",
        "grammar X; nonterminals a; end limbs L; end productions a ::= L; end",
        "cannot appear in the phrase structure" );
      ( "terminal lhs",
        "grammar X; terminals T; end nonterminals a; end productions a ::= T; T ::= ; end",
        "cannot be the left-hand side" );
      ( "undeclared in production",
        "grammar X; nonterminals a; end productions a ::= zz; end",
        "undeclared symbol" );
      ( "undeclared limb",
        "grammar X; nonterminals a; end productions a ::= -> Nope; end",
        "undeclared limb" );
      ( "root inherited",
        "grammar X; root a; nonterminals a has inh P : t; end productions a ::= ; end",
        "must not have inherited attributes" );
      ( "define lhs inherited",
        "grammar X; root a; nonterminals a; b has inh P : t; end limbs L; end \
         productions a ::= b -> L : b.P = 1; end \
         productions b ::= -> L : b.P = 2; end",
        "defined by the surrounding production" );
      ( "define rhs synthesized",
        "grammar X; root a; nonterminals a; b has syn P : t; end limbs L; end \
         productions a ::= b -> L : b.P = 1; b ::= -> L : b.P = 1; end",
        "defined by that symbol's own productions" );
      ( "define intrinsic",
        "grammar X; root a; terminals T has intrinsic P : t; end nonterminals a; end limbs L; end \
         productions a ::= T -> L : T.P = 1; end",
        "set by the parser" );
      ( "double definition",
        "grammar X; root a; nonterminals a has syn P : t; end limbs L; end \
         productions a ::= -> L : a.P = 1, a.P = 2; end",
        "already defined" );
      ( "missing definition",
        "grammar X; root a; nonterminals a has syn P : t; end limbs L; end \
         productions a ::= -> L ; end",
        "never defined" );
      ( "ambiguous occurrence",
        "grammar X; root a; nonterminals a; b has syn P : t; end limbs L; end \
         productions a ::= b b -> L : a.Q = b.P; b ::= -> L : b.P = 1; end",
        "occurs more than once" );
      ( "occurrence out of range",
        "grammar X; root a; nonterminals a has syn Q : t; b has syn P : t; end limbs L; end \
         productions a ::= b -> L : a.Q = b5.P; b ::= -> L : b.P = 1; end",
        "appears only" );
      ( "unknown attribute",
        "grammar X; root a; nonterminals a has syn Q : t; b has syn P : t; end limbs L; end \
         productions a ::= b -> L : a.Q = b.NOPE; b ::= -> L : b.P = 1; end",
        "has no attribute" );
      ( "arity mismatch",
        "grammar X; root a; nonterminals a has syn P : t, syn Q : t; end limbs L; end \
         productions a ::= -> L : a.P, a.Q = if true then 1, 2, 3 else 4, 5, 6 endif; end",
        "produces 3 value" );
      ( "branch arity disagreement",
        "grammar X; root a; nonterminals a has syn P : t, syn Q : t; end limbs L; end \
         productions a ::= -> L : a.P, a.Q = if true then 1, 2 else 3 endif; end",
        "differing numbers of values" );
      ( "if under operator",
        "grammar X; root a; nonterminals a has syn P : t; end limbs L; end \
         productions a ::= -> L : a.P = 1 + (if true then 1 else 2 endif); end",
        "may not appear inside operands" );
      ( "bare target without limb attr",
        "grammar X; root a; nonterminals a has syn P : t; end limbs L; end \
         productions a ::= -> L : NOPE = 1, a.P = 1; end",
        "not a limb attribute" );
      ( "occurrence without selection",
        "grammar X; root a; nonterminals a has syn P : t; b has syn P : t; end limbs L; end \
         productions a ::= b -> L : a.P = b; b ::= -> L : b.P = 1; end",
        "without an attribute selection" );
      ( "multiple roots",
        "grammar X; root a; root a; nonterminals a; end productions a ::= ; end",
        "multiple root declarations" );
    ]
  in
  List.iter (fun (_name, src, fragment) -> Fixtures.assert_error_mentioning src fragment) cases

let test_missing_root_defaults_to_first_lhs () =
  let ir =
    Fixtures.ir_of_source
      "grammar X; nonterminals a; b; end productions a ::= b; b ::= ; end"
  in
  Alcotest.(check string) "root is a" "a"
    ir.Ir.symbols.(ir.Ir.root).Ir.s_name

(* Attributes declared with one type name share one string. *)
let test_attr_types_shared () =
  let ir =
    Fixtures.ir_of_source
      "grammar X; nonterminals a has syn P : int, syn Q : int; \
       b has syn R : int, syn S : bool; end \
       productions a ::= b -> L : a.P = 1, a.Q = 2; b ::= -> M : b.R = 3, \
       b.S = true; end limbs L; M; end"
  in
  let ty name =
    (Array.to_list ir.Ir.attrs
    |> List.find (fun (a : Ir.attr) -> String.equal a.Ir.a_name name))
      .Ir.a_type
  in
  Alcotest.(check bool) "P and Q" true (ty "P" == ty "Q");
  Alcotest.(check bool) "P and R, across symbols" true (ty "P" == ty "R");
  Alcotest.(check string) "S keeps its own" "bool" (ty "S")

(* ----- implicit copy-rules ----- *)

let test_implicit_inherited_multi_occurrence () =
  (* Both occurrences of b receive their own implicit E copy from c.E, and
     c itself receives E from a... a has no E, so c.E is explicit here. *)
  let ir =
    Fixtures.ir_of_source
      {|
grammar X; root a;
nonterminals a has syn Q : t; b has inh E : t, syn S : t; c has inh E : t, syn S : t; end
limbs L1; L2; L3; end
productions
  a ::= c -> L1 : c.E = 0, a.Q = c.S;
  c ::= b b -> L3 : c.S = b0.S + b1.S;
  b ::= -> L2 : b.S = b.E;
end
|}
  in
  let stats = Ir.stats ir in
  Alcotest.(check int) "two implicit copies (b0.E, b1.E)" 2
    stats.Ir.n_implicit_copy_rules;
  (* They really are copies of c's E. *)
  let implicit =
    Array.to_list ir.Ir.rules |> List.filter (fun r -> r.Ir.r_implicit)
  in
  List.iter
    (fun (r : Ir.rule) ->
      match Ir.copy_ends r with
      | Some ({ Ir.occ = Ir.Rhs _; attr }, { Ir.occ = Ir.Lhs; attr = src }) ->
          Alcotest.(check string) "target is E" "E" ir.Ir.attrs.(attr).Ir.a_name;
          Alcotest.(check string) "source is E" "E" ir.Ir.attrs.(src).Ir.a_name
      | _ -> Alcotest.fail "unexpected implicit rule shape")
    implicit

let test_implicit_counts () =
  let ir = Fixtures.ir_of_source Lg_languages.Knuth_binary.ag_source in
  let stats = Ir.stats ir in
  (* number.VAL = list.VAL ; list.VAL = bit.VAL ; bit.SCALE = list.SCALE ;
     bit.SCALE = list0.SCALE *)
  Alcotest.(check int) "four implicit copies" 4 stats.Ir.n_implicit_copy_rules;
  Alcotest.(check bool) "implicit are copies" true
    (stats.Ir.n_copy_rules >= stats.Ir.n_implicit_copy_rules)

let test_implicit_synthesized_requires_unique_carrier () =
  (* Two RHS symbols carry S: no implicit rule, so an error. *)
  Fixtures.assert_error_mentioning
    {|
grammar X; root a;
nonterminals a has syn S : t; b has syn S : t; c has syn S : t; end
limbs L; L2; L3; end
productions
  a ::= b c -> L ;
  b ::= -> L2 : b.S = 1;
  c ::= -> L3 : c.S = 2;
end
|}
    "never defined";
  (* One symbol but two occurrences: likewise no implicit rule. *)
  Fixtures.assert_error_mentioning
    {|
grammar X; root a;
nonterminals a has syn S : t; b has syn S : t; end
limbs L; L2; end
productions
  a ::= b b -> L ;
  b ::= -> L2 : b.S = 1;
end
|}
    "never defined"

let test_implicit_from_intrinsic () =
  (* The synthesized flavor accepts an intrinsic carrier. *)
  let ir =
    Fixtures.ir_of_source
      {|
grammar X; root a;
terminals T has intrinsic S : t; end
nonterminals a has syn S : t; end
limbs L; end
productions
  a ::= T -> L ;
end
|}
  in
  Alcotest.(check int) "one implicit" 1 (Ir.stats ir).Ir.n_implicit_copy_rules

(* ----- statistics and CFG extraction ----- *)

let test_stats_shape () =
  let ir = Fixtures.ir_of_source ~lines:48 Lg_languages.Knuth_binary.ag_source in
  let s = Ir.stats ir in
  Alcotest.(check int) "lines" 48 s.Ir.lines;
  Alcotest.(check int) "symbols" 10 s.Ir.n_symbols;
  (* BIT.BVAL, number.VAL, list.VAL/LEN/SCALE, bit.VAL/SCALE *)
  Alcotest.(check int) "attributes" 7 s.Ir.n_attrs;
  Alcotest.(check int) "productions" 5 s.Ir.n_prods;
  Alcotest.(check int) "rules" 13 s.Ir.n_rules

let test_to_cfg_parses_inputs () =
  let ir = Fixtures.ir_of_source Lg_languages.Knuth_binary.ag_source in
  let cfg = Ir.to_cfg ir in
  let tables = Lg_lalr.Tables.build cfg in
  Alcotest.(check int) "no conflicts" 0
    (List.length (Lg_lalr.Tables.conflicts tables));
  let term name = Option.get (Lg_grammar.Cfg.find_terminal cfg name) in
  Alcotest.(check bool) "1 0 1 parses" true
    (Lg_lalr.Driver.accepts tables [ term "BIT"; term "BIT"; term "BIT" ]);
  Alcotest.(check bool) "1 . 1 parses" true
    (Lg_lalr.Driver.accepts tables [ term "BIT"; term "POINT"; term "BIT" ]);
  Alcotest.(check bool) ". alone rejected" false
    (Lg_lalr.Driver.accepts tables [ term "POINT" ])

(* ----- diagnostics parity: scan and syntax errors, mixed ----- *)

let rendered diag =
  List.map
    (fun (d : Lg_support.Diag.t) ->
      Format.asprintf "%a-%a %s" Lg_support.Loc.pp d.span Lg_support.Loc.pp_pos
        d.span.end_p d.message)
    (Lg_support.Diag.to_list diag)

(* One illegal character before the first syntax error and one after it:
   every scan error and every recovered syntax error is reported, in
   source order. *)
let test_parity_ag_source () =
  let src =
    "grammar X;\n\
     root a;\n\
     terminals b @ ; end\n\
     nonterminals a has syn P : t; ; end\n\
     productions\n\
    \  a ::= -> ;\n\
    \  a ::= b ! b -> L : a.P = (1 + ;\n\
     end\n"
  in
  match Driver.process ~file:"<t>" src with
  | Ok _ -> Alcotest.fail "must fail"
  | Error diag ->
      Alcotest.(check (list string))
        "every scan and syntax error, in source order"
        [
          "<t>:3.13-3.14 illegal character '@'";
          "<t>:4.31-4.32 syntax error: found SEMI, expected one of: IDENT, END";
          "<t>:6.12-6.13 syntax error: found SEMI, expected one of: IDENT";
          "<t>:7.11-7.12 illegal character '!'";
          "<t>:7.33-7.34 syntax error: found SEMI, expected one of: NUMBER, \
           STRING, IDENT, MINUS, LPAREN, NOT, TRUE, FALSE";
          "<t>:7.33-7.34 syntax error: found SEMI, expected one of: RPAREN";
        ]
        (rendered diag)

let desk_calc_diagnostics src =
  let t = Lg_languages.Desk_calc.translator () in
  match Translator.translate t ~file:"<input>" src with
  | Ok _ -> Alcotest.fail "must fail"
  | Error diag -> rendered diag

(* A scan error suppresses syntax errors: the translator reports only
   the illegal character. *)
let test_parity_desk_calc_scan_error () =
  Alcotest.(check (list string))
    "illegal character only"
    [ "<input>:1.13-1.14 illegal character '@'" ]
    (desk_calc_diagnostics "x := ; y := @ 1; z := ;")

(* With no scan error, the first syntax error is reported, alone. *)
let test_parity_desk_calc_syntax_error () =
  Alcotest.(check (list string))
    "first syntax error"
    [ "<input>:1.6-1.7 syntax error; expected one of: ID, NUM, LPAR" ]
    (desk_calc_diagnostics "x := ; y := 1 1; z := ;")

(* The diagnostics that locate a checked production, attribute or rule
   rather than a token: the missing root declaration, an inherited
   attribute on the root, an occurrence never defined, and rules (one
   explicit, one implicit copy-rule) outside the alternating-pass class.
   The text and its order are pinned byte for byte. *)
let pinned_check_src =
  {|grammar Pin;
terminals K; end
nonterminals
  top has inh I : int, syn S : int;
  x has syn B : int;
end
limbs TopL; XL; end
productions
  top ::= x -> TopL :
    top.S = x.B;
  x ::= K -> XL;
end
|}

let pinned_pass_src =
  {|grammar Zag;
root top;
strategy recursive_descent;
terminals K has intrinsic V : int; end
nonterminals
  top has syn OUT : int, syn Q : int;
  a has inh IN : int, inh Q : int, syn S : int;
  b has syn S : int;
end
limbs TopL; AL; BL; end
productions
  top ::= a b -> TopL :
    a.IN = b.S,
    top.Q = b.S,
    top.OUT = a.S;
  a ::= K -> AL :
    a.S = a.IN + a.Q + K.V;
  b ::= K -> BL :
    b.S = K.V;
end
|}

let pinned_diagnostics ?(max_passes = 16) src =
  let options = { Driver.default_options with Driver.max_passes } in
  match Driver.process ~options ~file:"pin.ag" src with
  | Ok _ -> Alcotest.fail "must fail"
  | Error diag -> Format.asprintf "%a" Lg_support.Diag.pp_all diag

let test_parity_ir_spans () =
  Alcotest.(check string)
    "check: root and completeness"
    "pin.ag:4.15: error: root symbol \"top\" must not have inherited \
     attributes (\"I\")\n\
     pin.ag:9.3: warning: no root declaration; taking \"top\" (left-hand \
     side of the first production)\n\
     pin.ag:11.3: error: production XL: synthesized left-hand-side \
     attribute \"B\" is never defined (and no implicit copy-rule applies)\n"
    (pinned_diagnostics pinned_check_src);
  Alcotest.(check string)
    "pass assignment: explicit and implicit rules"
    "<builtin>:1.1: info: the grammar is well-defined (noncircular); its \
     information flow simply does not fit the requested number of \
     alternating passes\n\
     pin.ag:12.3: error: not evaluable in 1 alternating passes: semantic \
     function a$1.Q = top$lhs.Q   # implicit: its arguments become \
     available only at point 6 but the target must exist at point 2 of the \
     left-to-right pass\n\
     pin.ag:13.5: error: not evaluable in 1 alternating passes: semantic \
     function a$1.IN = b$2.S: its arguments become available only at point \
     6 but the target must exist at point 2 of the left-to-right pass\n"
    (pinned_diagnostics ~max_passes:1 pinned_pass_src)

(* Check's own diagnostics, placed from the positions the AST keeps:
   lines indented with a tab (one byte, one column) and a last line with
   no newline after it. Start and end of each span, and their order,
   are pinned. *)
let tab_check_src =
  "grammar Tab;\n\
   root top;\n\
   terminals K has intrinsic V : int; end\n\
   nonterminals\n\
   \ttop has syn S : int;\n\
   \tx has syn B : int, syn B : int;\n\
   end\n\
   limbs TopL; XL; end\n\
   productions\n\
  \  top ::= x -> TopL :\n\
   \t\ttop.S = x.Q;\n\
  \  x ::= K -> XL : x.B = y.C + K.V, x.B = 1; end"

let test_parity_check_positions () =
  match Driver.process ~file:"tab.ag" tab_check_src with
  | Ok _ -> Alcotest.fail "must fail"
  | Error diag ->
      Alcotest.(check (list string))
        "check diagnostics, in source order"
        [
          "tab.ag:6.25-6.26 duplicate attribute \"B\" of symbol \"x\"";
          "tab.ag:11.11-11.14 symbol \"x\" has no attribute \"Q\"";
          "tab.ag:12.25-12.28 unknown symbol occurrence \"y\"";
          "tab.ag:12.36-12.39 attribute occurrence already defined in this \
           production";
        ]
        (rendered diag)

let () =
  Alcotest.run "front"
    [
      ( "parse",
        [
          Alcotest.test_case "knuth grammar" `Quick test_parse_knuth;
          Alcotest.test_case "multi-target" `Quick test_parse_multi_target;
          Alcotest.test_case "elsif chain" `Quick test_parse_elsif_chain;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "syntax errors" `Quick test_parse_error_cases;
          Alcotest.test_case "suffix stripping" `Quick test_strip_suffix;
          Alcotest.test_case "expr print/reparse" `Quick test_pp_roundtrip;
          Alcotest.test_case "multiple syntax errors" `Quick
            test_multiple_syntax_errors_reported;
          Alcotest.test_case "figure 5 multi-target" `Quick
            test_figure5_multi_target;
          Alcotest.test_case "merge positions" `Quick test_merge_positions;
        ] );
      ( "diagnostics parity",
        [
          Alcotest.test_case "AG source, scan and syntax errors" `Quick
            test_parity_ag_source;
          Alcotest.test_case "desk_calc, scan error only" `Quick
            test_parity_desk_calc_scan_error;
          Alcotest.test_case "desk_calc, first syntax error" `Quick
            test_parity_desk_calc_syntax_error;
          Alcotest.test_case "checked IR positions" `Quick test_parity_ir_spans;
          Alcotest.test_case "check positions after tabs, no final newline"
            `Quick test_parity_check_positions;
        ] );
      ( "check",
        [
          Alcotest.test_case "diagnostic catalog" `Quick test_check_diagnostics;
          Alcotest.test_case "default root" `Quick
            test_missing_root_defaults_to_first_lhs;
          Alcotest.test_case "attribute types shared" `Quick
            test_attr_types_shared;
        ] );
      ( "implicit",
        [
          Alcotest.test_case "multi-occurrence inherited" `Quick
            test_implicit_inherited_multi_occurrence;
          Alcotest.test_case "counts (knuth)" `Quick test_implicit_counts;
          Alcotest.test_case "unique carrier required" `Quick
            test_implicit_synthesized_requires_unique_carrier;
          Alcotest.test_case "intrinsic carrier" `Quick test_implicit_from_intrinsic;
        ] );
      ( "stats",
        [
          Alcotest.test_case "shape" `Quick test_stats_shape;
          Alcotest.test_case "shared CFG" `Quick test_to_cfg_parses_inputs;
        ] );
    ]
