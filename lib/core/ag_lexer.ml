let keywords =
  [
    ("grammar", "GRAMMAR");
    ("terminals", "TERMINALS");
    ("nonterminals", "NONTERMINALS");
    ("limbs", "LIMBS");
    ("productions", "PRODUCTIONS");
    ("root", "ROOT");
    ("strategy", "STRATEGY");
    ("bottom_up", "BOTTOM_UP");
    ("recursive_descent", "RECURSIVE_DESCENT");
    ("has", "HAS");
    ("inh", "INH");
    ("syn", "SYN");
    ("intrinsic", "INTRINSIC");
    ("if", "IF");
    ("then", "THEN");
    ("elsif", "ELSIF");
    ("else", "ELSE");
    ("endif", "ENDIF");
    ("and", "AND");
    ("or", "OR");
    ("not", "NOT");
    ("true", "TRUE");
    ("false", "FALSE");
    ("end", "END");
  ]

let spec =
  Lg_scanner.Spec.make ~keywords ~keyword_rules:[ "IDENT" ]
    [
      ("WS", "[ \\t\\r\\n]+", Lg_scanner.Spec.Skip);
      ("COMMENT", "#[^\\n]*", Lg_scanner.Spec.Skip);
      ("NUMBER", "[0-9]+", Lg_scanner.Spec.Token);
      ("STRING", "\\\"([^\\\"\\\\\\n]|\\\\[^\\n])*\\\"", Lg_scanner.Spec.Token);
      ("IDENT", "[A-Za-z][A-Za-z0-9_$]*", Lg_scanner.Spec.Token);
      ("CCEQ", "::=", Lg_scanner.Spec.Token);
      ("ARROW", "->", Lg_scanner.Spec.Token);
      ("NE", "<>", Lg_scanner.Spec.Token);
      ("LE", "<=", Lg_scanner.Spec.Token);
      ("GE", ">=", Lg_scanner.Spec.Token);
      ("EQ", "=", Lg_scanner.Spec.Token);
      ("LT", "<", Lg_scanner.Spec.Token);
      ("GT", ">", Lg_scanner.Spec.Token);
      ("PLUS", "\\+", Lg_scanner.Spec.Token);
      ("MINUS", "-", Lg_scanner.Spec.Token);
      ("COMMA", ",", Lg_scanner.Spec.Token);
      ("SEMI", ";", Lg_scanner.Spec.Token);
      ("COLON", ":", Lg_scanner.Spec.Token);
      ("DOT", "\\.", Lg_scanner.Spec.Token);
      ("LPAREN", "\\(", Lg_scanner.Spec.Token);
      ("RPAREN", "\\)", Lg_scanner.Spec.Token);
    ]

let tables = Lg_support.Once.make (fun () -> Lg_scanner.Tables.compile spec)

let tokens ~file ~diag input =
  Lg_scanner.Engine.tokens (Lg_support.Once.force tables) ~file ~diag input

let token_kinds =
  [
    "NUMBER";
    "STRING";
    "IDENT";
    "CCEQ";
    "ARROW";
    "NE";
    "LE";
    "GE";
    "EQ";
    "LT";
    "GT";
    "PLUS";
    "MINUS";
    "COMMA";
    "SEMI";
    "COLON";
    "DOT";
    "LPAREN";
    "RPAREN";
  ]
  @ List.map snd keywords
