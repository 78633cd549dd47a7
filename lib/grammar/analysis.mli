(** Classic grammar analyses: NULLABLE, FIRST and FOLLOW.

    NULLABLE feeds the LALR lookahead pass, minimum derivation heights
    the random sentence generator's termination argument. *)

type t

val compute : Cfg.t -> t

val nullable_nt : t -> int -> bool
val nullable_symbol : t -> Cfg.symbol -> bool

val nullable_seq : t -> Cfg.symbol array -> from:int -> bool
(** Is the suffix of the array starting at [from] nullable? *)

val first_nt : t -> int -> int list
(** FIRST set of a nonterminal, as sorted terminal indices. *)

val first_seq : t -> Cfg.symbol array -> from:int -> extra:int list -> int list
(** FIRST of a sentential suffix followed by the terminals in [extra]
    (i.e. FIRST(alpha extra)); this is the LALR lookahead workhorse. *)

val follow_nt : t -> int -> int list
(** FOLLOW set; the start symbol's FOLLOW contains the end marker.
    {!compute} does not build FOLLOW: every call computes all FOLLOW
    sets afresh, so ask once per grammar. *)

val min_height : t -> int -> int
(** Height of the shallowest terminal derivation from a nonterminal;
    [max_int] when unproductive. Drives generator termination. *)

val min_height_production : t -> Cfg.production -> int
