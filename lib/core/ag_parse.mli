(** Parser for the AG input language: scanner + LALR driver + tree-building
    actions (LINGUIST-86's overlay 1).

    Tokens stream from the scanner into the driver, so a successful parse
    holds the AST and no token list. On a syntax error a diagnostic naming
    the expected tokens is recorded for every error panic-mode recovery
    finds (the input is scanned a second time, into a list, to place them)
    and [None] is returned; scanning errors are likewise collected rather
    than raised. *)

val parse :
  file:string ->
  diag:Lg_support.Diag.collector ->
  string ->
  Ag_ast.spec option

val parse_exn : file:string -> string -> Ag_ast.spec
(** Convenience for tests and built-in grammars.
    @raise Failure with all diagnostics rendered, on any error. *)
