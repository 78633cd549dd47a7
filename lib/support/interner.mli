(** Name table: the paper's identifier-interning package.

    LINGUIST-86 keeps "name-table entries that store the source text of
    identifiers" in its 48K dynamic area; intrinsic attributes of terminals
    denote name-table indices. This module provides the same service:
    strings are mapped to dense integer names, and names back to strings,
    in amortized O(1).

    Tables are safe to share across domains: a translator's name table
    is interned into by every concurrent evaluation run against that
    translator (the batch-evaluation pool), so each operation runs under
    an internal mutex. Names remain dense and stable; which string gets
    which index depends on interning order and is therefore only
    deterministic single-threaded. *)

type t
(** A mutable name table. *)

type name = int
(** A dense index into one table. Valid only for the table that issued it. *)

val create : ?initial_size:int -> unit -> t

val intern : t -> string -> name
(** [intern t s] returns the unique name for [s], allocating it on first
    use. Subsequent calls with an equal string return the same name. *)

val find_opt : t -> string -> name option
(** Like {!intern} but never allocates. *)

val text : t -> name -> string
(** The source text of a name.
    @raise Invalid_argument if the name was not issued by this table. *)

val count : t -> int
(** Number of distinct names interned so far. *)

val mem : t -> string -> bool

val iter : t -> (name -> string -> unit) -> unit
(** Iterate in order of allocation. *)
