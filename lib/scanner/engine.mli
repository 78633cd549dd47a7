(** Table-driven scanner: the interpreter of generated {!Tables}.

    Longest match wins; among equal-length matches the first-declared rule
    wins. On an unmatchable byte the engine reports a diagnostic, skips one
    byte, and resumes — LINGUIST-86's overlay 1 likewise collects all
    syntactic errors rather than stopping at the first. *)

type token = { kind : string; lexeme : string; span : Lg_support.Loc.span }

val pp_token : Format.formatter -> token -> unit

val tokens :
  Tables.t ->
  file:string ->
  diag:Lg_support.Diag.collector ->
  string ->
  token Seq.t
(** Scan a whole input lazily: each token is matched when the sequence is
    forced that far. [Skip] rules produce no tokens. Never raises on bad
    input; errors go to [diag] as the bytes they cover are reached. Those
    diagnostics are side effects of forcing, so consume the sequence once:
    forcing it again scans again and reports every error twice. *)

val scan :
  Tables.t ->
  file:string ->
  diag:Lg_support.Diag.collector ->
  string ->
  token list
(** [tokens], forced to the end into a list. *)

val line_count : string -> int
(** Number of source lines, counting a trailing fragment as a line — the
    unit of the paper's lines-per-minute throughput figures. *)
