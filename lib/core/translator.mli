(** A complete generated translator: the user-facing artifact of the
    translator-writing system.

    Bundles what translation reads of everything the TWS derives from
    one AG source: the checked grammar, the evaluation plan, packed LALR
    parse tables built from {e the same} phrase structure ({!Ir.to_cfg} —
    the paper's shared-input-file discipline), and a generated scanner.
    [translate] then runs input text through scanner, parser (building
    the APT and setting intrinsic attributes), and the alternating-pass
    evaluator, returning the root's synthesized attributes.

    Intrinsic attributes are populated from tokens: by convention an
    intrinsic attribute named [LINE] receives the token's line number,
    [COL] its column, [NAME] its name-table index (interned lexeme),
    [BASENAME] the name-table index of the lexeme with its numeric
    occurrence suffix stripped, and [TEXT] its lexeme; anything else is
    supplied by the [intrinsics] callback. *)

type t

val interner : t -> Lg_support.Interner.t
(** The translator's name table ([NAME] intrinsics index into it). *)

val ir : t -> Ir.t
val plan : t -> Plan.t
val parse_tables : t -> Lg_lalr.Tables.t

val make :
  ?options:Driver.options ->
  ?intrinsics:
    (Lg_scanner.Engine.token -> string -> Lg_support.Value.t option) ->
  scanner:Lg_scanner.Spec.t ->
  ag_source:string ->
  file:string ->
  unit ->
  (t, Lg_support.Diag.collector) result
(** Build a translator from an AG source text. Scanner token kinds must
    coincide with the AG's terminal names (unknown kinds are reported when
    encountered). [intrinsics token attr_name] supplies values for
    intrinsic attributes beyond the conventional four.

    [options] (default {!Driver.default_options}) drive
    {!Driver.process}, except that [emit_listing] and [emit_code] are
    forced off: a translator keeps only the IR, the plan, the packed
    parse tables and the scanner, and the listing and generated Pascal
    modules belong to [compile]. *)

val make_exn :
  ?options:Driver.options ->
  ?intrinsics:
    (Lg_scanner.Engine.token -> string -> Lg_support.Value.t option) ->
  scanner:Lg_scanner.Spec.t ->
  ag_source:string ->
  file:string ->
  unit ->
  t

val symbolic_scanner : Ir.t -> Lg_scanner.Spec.t
(** A scanner derived from the grammar's own terminal names: one
    identifier rule ([SYM]) whose keyword table maps every terminal name
    to itself, plus whitespace/comment skips. Under it, an input text is
    a whitespace-separated sequence of terminal names — the convention
    generated corpus grammars use (see [docs/CORPUS.md]). *)

val symbolic_intrinsics :
  Lg_scanner.Engine.token -> string -> Lg_support.Value.t option
(** The default intrinsics callback of {!of_source}: a non-conventional
    intrinsic attribute receives the token lexeme's trailing digit run as
    an [Int]; with no trailing digits, the alphabet index of the last
    character ([a] = 0 .. [z] = 25, letter-named corpus terminals land
    here), else 0. The conventional names
    ([LINE]/[COL]/[NAME]/[BASENAME]/[TEXT]/[LEXVAL]) return [None] so the
    standard defaults apply. *)

val of_source :
  ?options:Driver.options ->
  ?intrinsics:
    (Lg_scanner.Engine.token -> string -> Lg_support.Value.t option) ->
  ag_source:string ->
  file:string ->
  unit ->
  (t, Lg_support.Diag.collector) result
(** Build a complete translator from an AG source alone: {!make} with
    {!symbolic_scanner} derived from the checked grammar and
    {!symbolic_intrinsics} as the default callback. This is the path
    that serves arbitrary (e.g. corpus-generated) grammars as batch/serve
    tenants without a hand-written scanner. *)

type translation = {
  outputs : (string * Lg_support.Value.t) list;
  eval_stats : Engine.run_stats;
  tree_size : int;  (** APT nodes *)
  input_lines : int;
}

val translate :
  ?engine_options:Engine.options ->
  t ->
  file:string ->
  string ->
  (translation, Lg_support.Diag.collector) result
(** Every failure — scan/parse errors, evaluator logic errors, and the
    typed APT integrity/resource errors ({!Lg_apt.Apt_error}) — comes
    back as [Error diag]; this function never raises on bad input. *)

val translate_exn :
  ?engine_options:Engine.options -> t -> file:string -> string -> translation
(** Like {!translate} but scan/parse/logic failures raise [Failure] with
    the rendered diagnostics, while {!Lg_apt.Apt_error.Error} propagates
    untouched so callers can dispatch on the failure class (the CLI maps
    it to a stable exit code). *)

val tree_of_source :
  t ->
  file:string ->
  diag:Lg_support.Diag.collector ->
  string ->
  Lg_apt.Tree.t option
(** Scanner + parser only: the APT with intrinsic attributes set. Tokens
    stream from the scanner into the parser, so no token list is built.
    [None] when [diag] holds any error afterwards: every scan error and
    token-kind error is reported, and then no syntax error is; otherwise
    the first syntax error is reported. *)
