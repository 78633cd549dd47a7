(** Scanner specifications.

    A specification is an ordered list of named rules (earlier rules win
    ties; longest match wins overall), plus an optional keyword table: when
    a rule listed in [keyword_rules] matches, its lexeme is looked up in
    [keywords] and, if found, the token kind is replaced — the standard way
    to scan reserved words without separate automaton states. *)

type action =
  | Token  (** produce a token whose kind is the rule name *)
  | Skip  (** discard the lexeme (whitespace, comments) *)

type rule = { name : string; pattern : Lg_regex.Regex_syntax.t; action : action }

type t = {
  rules : rule list;
  keywords : (string * string) list;  (** lexeme -> token kind *)
  keyword_rules : string list;  (** rules whose lexemes consult [keywords] *)
}

val make :
  ?keywords:(string * string) list ->
  ?keyword_rules:string list ->
  (string * string * action) list ->
  t
(** [make rules] with each rule as [(name, regex_source, action)].
    @raise Lg_regex.Regex_syntax.Parse_error on a malformed pattern
    @raise Invalid_argument if a pattern matches the empty string (it would
    stall the scanner) or a rule name repeats. *)
