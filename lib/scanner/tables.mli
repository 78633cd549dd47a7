(** Compiled scanner tables.

    This is the generator half of the paper's companion tool: the rules of a
    {!Spec.t} are combined into one NFA, determinized, minimized, and packed
    with per-rule dispatch information. The result is a pure data structure
    interpreted by {!Engine}. *)

type t

val compile : Spec.t -> t
(** The ambient tracer records ["scanner.nfa"] / ["scanner.determinize"] /
    ["scanner.minimize"] spans under ["scanner.compile"], with the packed
    table size as an argument. *)

val dfa : t -> Lg_regex.Dfa.t
val spec : t -> Spec.t
val rule_of_id : t -> int -> Spec.rule

val keyword_kind : t -> rule_name:string -> lexeme:string -> string
(** The token kind to emit for a match of [rule_name] on [lexeme], applying
    the keyword table when it applies. *)

val size_bytes : t -> int
(** Footprint of the generated tables (transition + accept + keyword
    entries), for the size-accounting experiments. *)
