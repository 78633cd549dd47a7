(** Intermediate APT files: sequential node streams readable in both
    directions.

    This is Schulz's disk-resident APT strategy as adopted by LINGUIST-86.
    Each pass reads nodes in prefix order from one intermediate file and
    writes them in postfix order to another; because every record is framed
    by its length on {e both} sides, "the output file of a left-to-right
    pass read backwards" is exactly "the input file for a right-to-left
    pass" — no in-memory reversal ever happens.

    This module is a façade: it owns the {!Node} codec and the
    record-level accounting, and delegates the on-medium layout to a
    store from {!Store_registry}: ["mem"] (an in-memory buffer, the
    "virtual memory" variant the paper's conclusions ask about and the
    default), ["paged"] (real temporary files through a page pool — the
    paper's floppy/rigid disk, and the fault-injection path), ["zip"],
    or an extension. *)

type backend = {
  store : string;  (** a {!Store_registry} name *)
  config : Apt_store.config;
}

type file
type writer
type reader

val backend_of_store_name : ?config:Apt_store.config -> string -> backend
(** Check a registry name (["mem"], ["paged"], ["zip"], …)
    and pair it with [config] (default {!Apt_store.default_config}); the
    CLI's [--apt-store] parser.
    @raise Failure on an unregistered name, listing the known stores. *)

val writer : ?stats:Io_stats.t -> backend -> writer
val write : writer -> Node.t -> unit
val close_writer : writer -> file
(** Finish the file. When a {!Lg_support.Metrics} registry was ambient
    at {!writer}, this publishes the file's record sizes into its
    [apt.record_bytes] histogram, once per file rather than per record. *)

val abort_writer : writer -> unit
(** Give up an unclosed writer: its medium is released and no file
    remains; nothing is published. *)

val read_forward : ?stats:Io_stats.t -> file -> reader
val read_backward : ?stats:Io_stats.t -> file -> reader

val read_next : reader -> Node.t option
(** [None] at end of stream. @raise Failure on a corrupt file. *)

val close_reader : reader -> unit

val to_list : ?stats:Io_stats.t -> file -> Node.t list
(** Whole contents in forward order; convenience for tests. *)

val of_list : ?stats:Io_stats.t -> backend -> Node.t list -> file

val size_bytes : file -> int
val record_count : file -> int

val store_name : file -> string
(** Name of the store that wrote the file. *)

val backing_path : file -> string option
(** The backing temp file, when the store has one; for tests/tools. *)

val dispose : file -> unit
(** Delete the backing temp file (no-op for ["mem"]). *)
