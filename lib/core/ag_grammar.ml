let nonterminals =
  [
    "spec";
    "sections";
    "section";
    "symdecls";
    "symdecl";
    "attrdecls";
    "attrdecl";
    "kind";
    "prods";
    "prod";
    "rhssyms";
    "limbopt";
    "semopt";
    "semfns";
    "semfn";
    "targets";
    "target";
    "expr";
    "ifexpr";
    "eliflist";
    "exprlist";
    "disj";
    "conj";
    "rel";
    "arith";
    "term";
    "atom";
  ]

(* (lhs, rhs, tag) — tags are the reduce-action keys used by Ag_parse. *)
let productions =
  [
    ("spec", [ "GRAMMAR"; "IDENT"; "SEMI"; "sections" ], "spec");
    ("sections", [ "sections"; "section" ], "sections_snoc");
    ("sections", [ "section" ], "sections_one");
    ("section", [ "ROOT"; "IDENT"; "SEMI" ], "sec_root");
    ("section", [ "STRATEGY"; "BOTTOM_UP"; "SEMI" ], "sec_strat_bu");
    ("section", [ "STRATEGY"; "RECURSIVE_DESCENT"; "SEMI" ], "sec_strat_rd");
    ("section", [ "TERMINALS"; "symdecls"; "END" ], "sec_terminals");
    ("section", [ "NONTERMINALS"; "symdecls"; "END" ], "sec_nonterminals");
    ("section", [ "LIMBS"; "symdecls"; "END" ], "sec_limbs");
    ("section", [ "PRODUCTIONS"; "prods"; "END" ], "sec_prods");
    ("symdecls", [ "symdecls"; "symdecl" ], "symdecls_snoc");
    ("symdecls", [ "symdecl" ], "symdecls_one");
    ("symdecl", [ "IDENT"; "SEMI" ], "symdecl_plain");
    ("symdecl", [ "IDENT"; "HAS"; "attrdecls"; "SEMI" ], "symdecl_attrs");
    ("attrdecls", [ "attrdecls"; "COMMA"; "attrdecl" ], "attrdecls_snoc");
    ("attrdecls", [ "attrdecl" ], "attrdecls_one");
    ("attrdecl", [ "kind"; "IDENT"; "COLON"; "IDENT" ], "attrdecl_kind");
    ("attrdecl", [ "IDENT"; "COLON"; "IDENT" ], "attrdecl_plain");
    ("kind", [ "INH" ], "kind_inh");
    ("kind", [ "SYN" ], "kind_syn");
    ("kind", [ "INTRINSIC" ], "kind_intr");
    ("prods", [ "prods"; "prod" ], "prods_snoc");
    ("prods", [ "prod" ], "prods_one");
    ( "prod",
      [ "IDENT"; "CCEQ"; "rhssyms"; "limbopt"; "semopt"; "SEMI" ],
      "prod" );
    ("rhssyms", [ "rhssyms"; "IDENT" ], "rhs_snoc");
    ("rhssyms", [], "rhs_nil");
    ("limbopt", [ "ARROW"; "IDENT" ], "limb_some");
    ("limbopt", [], "limb_none");
    ("semopt", [ "COLON"; "semfns" ], "sem_some");
    ("semopt", [], "sem_none");
    ("semfns", [ "semfns"; "COMMA"; "semfn" ], "semfns_snoc");
    ("semfns", [ "semfn" ], "semfns_one");
    ("semfn", [ "targets"; "EQ"; "expr" ], "semfn");
    ("targets", [ "targets"; "COMMA"; "target" ], "targets_snoc");
    ("targets", [ "target" ], "targets_one");
    ("target", [ "IDENT"; "DOT"; "IDENT" ], "target_dot");
    ("target", [ "IDENT" ], "target_bare");
    ("expr", [ "disj" ], "expr_disj");
    ("expr", [ "ifexpr" ], "expr_if");
    ( "ifexpr",
      [ "IF"; "expr"; "THEN"; "exprlist"; "eliflist"; "ELSE"; "exprlist"; "ENDIF" ],
      "ifexpr" );
    ("eliflist", [ "eliflist"; "ELSIF"; "expr"; "THEN"; "exprlist" ], "elif_snoc");
    ("eliflist", [], "elif_nil");
    ("exprlist", [ "exprlist"; "COMMA"; "expr" ], "exprlist_snoc");
    ("exprlist", [ "expr" ], "exprlist_one");
    ("disj", [ "disj"; "OR"; "conj" ], "or");
    ("disj", [ "conj" ], "disj_one");
    ("conj", [ "conj"; "AND"; "rel" ], "and");
    ("conj", [ "rel" ], "conj_one");
    ("rel", [ "arith"; "EQ"; "arith" ], "eq");
    ("rel", [ "arith"; "NE"; "arith" ], "ne");
    ("rel", [ "arith"; "LT"; "arith" ], "lt");
    ("rel", [ "arith"; "GT"; "arith" ], "gt");
    ("rel", [ "arith"; "LE"; "arith" ], "le");
    ("rel", [ "arith"; "GE"; "arith" ], "ge");
    ("rel", [ "arith" ], "rel_one");
    ("arith", [ "arith"; "PLUS"; "term" ], "add");
    ("arith", [ "arith"; "MINUS"; "term" ], "sub");
    ("arith", [ "term" ], "arith_one");
    ("term", [ "NOT"; "term" ], "not");
    ("term", [ "MINUS"; "term" ], "neg");
    ("term", [ "atom" ], "term_atom");
    ("atom", [ "NUMBER" ], "num");
    ("atom", [ "STRING" ], "str");
    ("atom", [ "TRUE" ], "true");
    ("atom", [ "FALSE" ], "false");
    ("atom", [ "IDENT" ], "ident");
    ("atom", [ "IDENT"; "DOT"; "IDENT" ], "dotref");
    ("atom", [ "IDENT"; "LPAREN"; "exprlist"; "RPAREN" ], "call");
    ("atom", [ "IDENT"; "LPAREN"; "RPAREN" ], "call0");
    ("atom", [ "LPAREN"; "expr"; "RPAREN" ], "paren");
  ]

let cfg =
  Lg_support.Once.make (fun () ->
      Lg_grammar.Cfg.make ~terminals:Ag_lexer.token_kinds ~nonterminals
        ~start:"spec" productions)

type tables = {
  lalr : Lg_lalr.Tables.t;
  terminal_of_kind : (string, int) Hashtbl.t;
}

let tables =
  Lg_support.Once.make (fun () ->
      let g = Lg_support.Once.force cfg in
      let lalr = Lg_lalr.Tables.build g in
      (match Lg_lalr.Tables.unresolved_conflicts lalr with
      | [] -> ()
      | c :: _ ->
          failwith
            (Format.asprintf "Ag_grammar: the AG language grammar has a %a"
               (Lg_lalr.Tables.pp_conflict lalr) c));
      let terminal_of_kind = Hashtbl.create 64 in
      Array.iteri
        (fun i kind -> Hashtbl.replace terminal_of_kind kind i)
        g.Lg_grammar.Cfg.terminals;
      { lalr; terminal_of_kind })

let production_tag i =
  let g = Lg_support.Once.force cfg in
  g.Lg_grammar.Cfg.productions.(i).Lg_grammar.Cfg.tag
