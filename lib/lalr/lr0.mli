(** The LR(0) automaton: canonical collection of item sets.

    The grammar is implicitly augmented with [S' ::= S]; the augmented
    production's index is {!augmented_prod} (one past the last real
    production). *)

type item = { prod : int; dot : int }

type state = {
  id : int;
  kernel : item list;  (** sorted *)
  closure : item list;  (** kernel plus closure items, sorted *)
  transitions : (Lg_grammar.Cfg.symbol * int) list;  (** goto edges *)
}

type t

val build : Lg_grammar.Cfg.t -> t

val grammar : t -> Lg_grammar.Cfg.t
val state_count : t -> int
val state : t -> int -> state
val start_state : t -> int

val augmented_prod : t -> int

val prod_lhs : t -> int -> int
(** Left-hand side of a (possibly augmented) production. The augmented
    production's LHS is a virtual nonterminal numbered
    [nonterminal_count grammar]. *)

val prod_rhs : t -> int -> Lg_grammar.Cfg.symbol array

val goto : t -> int -> Lg_grammar.Cfg.symbol -> int option
(** The state a state's transition on a symbol leads to: a search of its
    [transitions]. *)

val reductions : t -> int -> int list
(** Production indices of final items ([dot] at the end) in a state. *)

val pp_item : t -> Format.formatter -> item -> unit
val pp_state : t -> Format.formatter -> state -> unit
