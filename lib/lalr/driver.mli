(** Table-driven LR parser: "the parser that interprets those tables".

    The driver is generic in the token payload and in the semantic values
    pushed on the parse stack: [shift] lifts a token, [reduce] combines the
    popped right-hand-side values. Calling [reduce] bottom-up makes the call
    sequence a right-parse of the input — exactly the node order LINGUIST-86's
    parser writes to the first intermediate APT file. *)

type 'tok input = (int * 'tok) Seq.t
(** Tokens as (terminal index, payload); the end marker is appended by the
    driver and must not be present. The driver holds only the current
    lookahead: it keeps a consumed token only through the value [shift]
    made of it. *)

type error = {
  at : int;  (** index of the offending token in the input (or length) *)
  state : int;
  expected : int list;  (** terminal indices acceptable at this point *)
}

val parse :
  Tables.t ->
  shift:(int -> 'tok -> 'a) ->
  reduce:(int -> 'a list -> 'a) ->
  'tok input ->
  ('a, error) result
(** [shift term payload] produces the semantic value of a shifted terminal;
    [reduce prod vs] receives right-hand-side values left to right.

    The input is forced exactly once, front to back, and always to its
    end, even when the parse fails early: forcing it may have side effects,
    such as a scanner's diagnostics, that the caller needs in full and
    only once. *)

val right_parse : Tables.t -> 'tok input -> (int list, error) result
(** Just the bottom-up sequence of production indices. *)

val accepts : Tables.t -> int list -> bool
(** Does a bare terminal string parse? Convenience for tests. *)

val diagnose : Tables.t -> (int * 'tok) list -> error list
(** All syntax errors, found with panic-mode recovery: at each error the
    driver pops states until the offending token becomes shiftable, or
    failing that discards the token, and parses on. The original system's
    first overlay likewise "writes a list of all syntactic errors" rather
    than stopping at the first. Returns [] iff {!parse} would succeed.
    Takes a list, not a sequence: it runs only after a failed {!parse},
    whose caller re-scans the input to map [at] back to a token. *)
