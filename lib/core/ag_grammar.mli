(** The context-free grammar of the AG input language, and its LALR tables.

    Mirrors the original system's discipline of feeding one grammar to both
    the parse-table builder and the evaluator generator: this module is the
    single definition of the AG language's phrase structure, compiled by
    substrate S6 (our own LALR builder) and interpreted by S7 (our own LR
    driver). The grammar is conflict-free LALR(1); {!tables} asserts so. *)

val cfg : Lg_grammar.Cfg.t Lg_support.Once.t
type tables = {
  lalr : Lg_lalr.Tables.t;
  terminal_of_kind : (string, int) Hashtbl.t;
      (** token kind -> terminal index, built with [lalr] so the parser
          classifies each token with one lookup *)
}

val tables : tables Lg_support.Once.t

val production_tag : int -> string
(** Tag of a production index — the key {!Ag_parse} dispatches on. *)
