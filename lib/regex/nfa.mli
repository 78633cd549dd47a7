(** Thompson-construction NFAs over byte character classes.

    Several tagged regular expressions are combined into a single automaton
    (one per scanner rule); an accepting state carries the rule index it
    accepts, and when several rules accept simultaneously the
    smallest-indexed (highest-priority, first-declared) rule wins — the
    usual scanner-generator convention. *)

type t

val build : (Regex_syntax.t * int) list -> t
(** [build rules] combines each [(regex, rule_id)]; rule ids need not be
    contiguous but must be non-negative. *)

val state_count : t -> int
val start : t -> int

val eps_closure : t -> int list -> int list
(** Sorted, duplicate-free epsilon closure of a state set. *)

val step : t -> int list -> char -> int list
(** One-symbol move followed by epsilon closure; input must be closed. *)

val accepting_rule : t -> int list -> int option
(** Highest-priority rule accepted by any state in the (closed) set. *)

val edge_classes : t -> Char_class.t list
(** All character classes labelling edges — input to
    {!Char_class.split_alphabet}. *)

val scan_longest : t -> string -> int -> (int * int) option
(** [scan_longest t input start] simulates the NFA directly for the
    longest match beginning at [start]; returns [(rule, end_offset)].
    Reference implementation for differential tests against the DFA. *)
