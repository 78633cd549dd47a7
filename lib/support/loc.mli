(** Source positions and spans.

    Every token produced by the scanner carries a {!span}; diagnostics and
    intrinsic attributes (the paper's [commaNT.LINE]) are derived from it. *)

type pos = {
  line : int;  (** 1-based line number *)
  col : int;  (** 1-based column number *)
  offset : int;  (** 0-based byte offset into the input *)
}

type span = { file : string; start_p : pos; end_p : pos }

val start_pos : pos
(** Position of the first byte of an input: line 1, column 1, offset 0. *)

val advance : pos -> char -> pos
(** [advance p c] is the position just after reading character [c] at [p];
    a newline resets the column and bumps the line. *)

val dummy : span
(** A span usable where no real source position exists (built-in grammars). *)

val span : string -> pos -> pos -> span

val compare_span : span -> span -> int
(** Order by start offset, then end offset — listing order. *)

val pp : Format.formatter -> span -> unit
(** Renders as [file:line.col] (start position only). *)

val pp_pos : Format.formatter -> pos -> unit
