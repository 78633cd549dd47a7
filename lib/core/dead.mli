(** Attribute lifetime analysis: temporary vs significant attributes and
    which attributes each pass's file carries (paper §III, first
    optimization; cf. Saarinen and Pozefsky–Jazayeri).

    An attribute defined in pass [d] and last referenced in pass [u] must
    travel through the intermediate files written at the end of passes
    [d .. u-1]; an attribute with [u <= d] ({e temporary}) never touches a
    file at all and lives only on the production-procedure stack. The root
    symbol's synthesized attributes are the translation result, so they
    stay live through the final file. *)

type mode =
  | Optimized  (** write only live-across-pass attributes *)
  | Keep_all  (** baseline: write every attribute already computed *)

type t

val analyze : ?mode:mode -> Ir.t -> Pass_assign.result -> t
(** Statically allocated attributes are still {!written} when they
    are significant: the evaluator synchronizes each global into its node
    record as the record is written, so later passes read the value from
    the file like any other attribute. *)

val last_use : t -> int -> int
(** 0 when never used. Root outputs report [n_passes + 1]. *)

val is_temporary : t -> int -> bool
(** Never crosses a pass boundary. *)

val written : t -> pass:int -> int -> bool
(** [written t ~pass a]: attribute [a] is present in every node record
    written at the end of [pass] (pass 0 = the parser's initial
    linearization). {!Plan.record_slots} tabulates it per record. *)

val temporary_count : t -> int
val significant_count : t -> int
