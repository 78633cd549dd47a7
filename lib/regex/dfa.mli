(** Deterministic automata: subset construction and minimization.

    The DFA works over a partition of the byte alphabet into equivalence
    classes (one transition-table column per class), which is how the
    generated scanner tables stay small — the paper's generated scanner
    tables for the AG language are interpreted the same way. *)

type t

val of_nfa : Nfa.t -> t
(** Subset construction. Accepting subsets take the highest-priority
    (smallest) rule id among their NFA states. *)

val minimize : t -> t
(** Moore partition refinement; preserves accepted language and rule
    labelling, reaches the unique minimal automaton. Unreachable states are
    dropped first. *)

val state_count : t -> int
val class_count : t -> int
val start : t -> int

val next : t -> int -> char -> int
(** Transition; [-1] is the dead state. *)

val accept : t -> int -> int
(** Rule accepted in this state, or [-1]. *)

val longest_match : t -> string -> int -> int
(** [longest_match t input start]: the longest match from [start], packed
    into one int so that a scanner loop allocates nothing per token: [-1]
    when nothing matches, else a value {!match_rule} and {!match_end}
    unpack. *)

val match_rule : int -> int
val match_end : int -> int

val exec_longest : t -> string -> int -> (int * int) option
(** [exec_longest t input start]: {!longest_match} as
    [Some (rule, end_offset)]. *)

val table_bytes : t -> int
(** Size of the flattened transition/accept tables in bytes, assuming
    16-bit entries — the scanner-table footprint reported by size
    accounting. *)
