(** APT node records: what travels through the intermediate files.

    A record is a production id (or {!leaf_prod} for terminal leaves), the
    labelling symbol's index, and the attribute slots the current pass
    chose to keep. Attribute layout (which attribute lives in which slot)
    is owned by the evaluator; this module only moves slots around. *)

type t = {
  prod : int;  (** production index; {!leaf_prod} for terminal leaves *)
  sym : int;  (** nonterminal index, or terminal index for leaves *)
  attrs : Lg_support.Value.t array;
}

val leaf_prod : int
(** The production id marking terminal leaves ([-1]). *)

val leaf : sym:int -> attrs:Lg_support.Value.t array -> t
val interior : prod:int -> sym:int -> attrs:Lg_support.Value.t array -> t
val is_leaf : t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val encode : Buffer.t -> t -> unit
val decode : string -> t
(** Decode a full record payload.
    @raise Apt_error.Error [Corrupt_record] on malformed input: a varint
    that runs off the payload, is longer than nine bytes or decodes a
    negative header field, a value count past the payload's bytes, a
    malformed value, or trailing bytes. *)

val encoded_size : t -> int
