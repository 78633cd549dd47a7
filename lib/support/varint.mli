(** LEB128 varints: the integer fields of APT record payloads (the
    {!Value.encode} payloads and the node header around them).

    An [int]'s 63 bits fit in nine 7-bit groups, so nine bytes is the
    most {!add} writes and the most {!read} accepts: a longer varint is
    damage, never a value whose high bits a shift would drop. *)

val add : Buffer.t -> int -> unit
(** Append [n]'s 63-bit pattern, low group first. A negative [n] is
    written as its pattern, so {!read} gives it back. *)

val read : string -> int -> int * int
(** [read s pos] is the varint at [pos] and the position just after it.
    @raise Failure when the varint runs off [s] or is longer than nine
    bytes. *)
