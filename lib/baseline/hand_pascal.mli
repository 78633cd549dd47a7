(** A conventional hand-written compiler for the same Pascal subset as
    {!Lg_languages.Pascal_ag}: hand lexer, recursive-descent parser,
    single-pass type checker and code generator.

    This is the stand-in for the paper's host-system translator products
    ("between 400 and 900 lines per minute"): experiment E5 compares its
    throughput and output against the AG-generated compiler, and the
    differential tests require both compilers to produce programs with
    identical observable behaviour. *)

type message = { line : int; tag : string; name : string }

type compiled = {
  code : Lg_support.Value.t;  (** a {!Lg_languages.Stack_machine} program *)
  messages : message list;
}

exception Syntax_error of int * string
(** (line, description) — the hand compiler stops at the first syntax
    error, unlike the table-driven front end. *)

val compile : string -> compiled
