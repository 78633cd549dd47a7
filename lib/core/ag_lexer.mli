(** The scanner for the AG input language.

    The specification below is itself compiled by the scanner generator
    (substrate S4) — the tool chain's front end is built with the tool
    chain's own tools, as in the original system where overlay 1 "contains
    the automatically generated scanner tables ... and their interpreters". *)

val spec : Lg_scanner.Spec.t
(** Tokens: [IDENT] (also yielding the keyword tokens via the keyword
    table), [NUMBER], [STRING], the operators
    [::= -> = <> <= >= < > + - , ; : . ( )], with [#]-to-end-of-line
    comments and whitespace skipped. Identifiers may contain ['$'] and
    ['_'], following the paper's [function$list0] style. *)

val tables : Lg_scanner.Tables.t Lg_support.Once.t
(** Compiled scanner tables (compiled once per process). *)

val keywords : (string * string) list
(** lexeme/token-kind pairs for the reserved words. *)

val tokens :
  file:string ->
  diag:Lg_support.Diag.collector ->
  string ->
  Lg_scanner.Engine.token Seq.t
(** {!Lg_scanner.Engine.tokens} over {!tables}: lazy, and reporting to
    [diag] as it is forced, so force it once. *)

val token_kinds : string list
(** Every token kind the scanner can produce — the terminal alphabet of
    {!Ag_grammar}. *)
