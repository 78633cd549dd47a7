(** The pluggable APT store layer.

    A store moves opaque byte records — the payloads produced by
    {!Node.encode} — to and from some medium, and streams them back
    sequentially from either end: the only access pattern the
    alternating-pass evaluator needs (paper §II/§IV). The {!Aptfile}
    façade keeps the node codec and record accounting; stores own the
    on-medium layout and tally bytes, pages and seeks into {!Io_stats}.

    Every byte-compatible store writes the one checksummed {e framed}
    layout ({!Framed}, {!Record_codec}); readers check the file
    signature and refuse anything else. Integrity failures surface as
    {!Apt_error} values.

    A store is a value of the record type {!t} (closures); the builtins
    are ["mem"], ["paged"] and the ["zip"] layer over ["paged"].
    Registration happens in {!Store_registry}. *)

type direction = [ `Forward | `Backward ]

(** Deterministic fault injection: which faults, how often, and the RNG
    seed that makes a campaign reproducible. Read-side kinds are
    injected inside {!Store_pager}, below the checksum layer, where the
    bounded retry policy absorbs them; write-side kinds damage the
    medium when a ["paged"] writer (and so ["zip"] over it) closes. *)
type fault_kind =
  | Transient_io  (** read fails once (EIO); absorbed by pager retries *)
  | Short_read  (** a physical read returns fewer bytes than asked *)
  | Bit_flip  (** one bit of the written file is flipped *)
  | Torn_write  (** the written file is truncated mid-record *)

type fault_spec = {
  f_seed : int;
  f_rate : float;  (** per-opportunity injection probability, in [0,1] *)
  f_kinds : fault_kind list;
}

val parse_spec : string -> (fault_spec, string) result
(** Parse ["SEED:RATE:KINDS"] (kinds: comma list of
    [transient|short|flip|torn], or [all]) — the [--apt-faults] syntax. *)

val spec_to_string : fault_spec -> string
(** The spec string {!parse_spec} reads back
    ({!Lg_support.Kind_spec.render}). *)

type config = {
  dir : string option;  (** backing directory; [None] = system temp dir *)
  page_size : int;  (** page size for paged stores, bytes *)
  pool_pages : int;  (** buffer-pool capacity, in pages *)
  prefetch_pages : int;  (** read-ahead window on sequential access *)
  zip_block : int;  (** records per compressed block in zip layers *)
  durable : bool;  (** fsync backing files before the atomic rename *)
  faults : fault_spec option;  (** deterministic fault injection *)
}

val default_config : config
(** 4 KiB pages, 8-page pool, 2-page read-ahead, 32-record blocks;
    no fsync, no faults. *)

type reader = { next : unit -> string option; close_reader : unit -> unit }

type file = {
  f_store : string;  (** name of the store that wrote it *)
  f_size : int;  (** bytes occupied on the medium *)
  f_records : int;
  f_path : string option;  (** backing file, exposed for tests/tools *)
  f_read : Io_stats.t option -> direction -> reader;
  f_dispose : unit -> unit;
}

type writer = {
  put : string -> unit;
  close : unit -> file;
  abort : unit -> unit;
      (** give an unclosed writer up: release its medium and leave no file *)
}
type t = { s_name : string; start : Io_stats.t option -> writer }

(** CRC32 (IEEE 802.3 polynomial), the record checksum of the framed
    format. *)
module Crc32 : sig
  val digest : string -> int
end

(** Constants of the checksummed framed format, version 1: the file
    opens with the {!Framed.magic} signature and every record is
    [u32 len | u32 crc | payload | u32 crc | u32 len], little-endian. *)
module Framed : sig
  val magic : string

  val data_start : int
  (** byte offset of the first record *)

  val overhead : int
  (** framing bytes added per record *)
end

(** The shared record walk: given a positioned byte [source], decode
    framed records in either direction, raising typed {!Apt_error}
    values (with file offsets) on any integrity failure. All
    byte-compatible stores and the {!Salvage} scanner are built on this
    one codec. *)
module Record_codec : sig
  type source = {
    src_path : string option;
    src_size : int;
    src_read : pos:int -> len:int -> want:[ `Low | `High ] -> string;
  }

  val sniff : path:string option -> string -> unit
  (** Check a file's first bytes (at least the signature's four, when
      the file has them) against {!Framed.magic}. A shorter head raises
      [Truncated_file]; any other head raises [Version_mismatch] —
      damaged, foreign or future-versioned files are never parsed. *)

  val frame : string -> string * string
  (** [(header, trailer)] strings for a payload. *)

  val next_forward : source -> pos:int -> (string * int) option
  (** Record starting at [pos] and the position after it; [None] at the
      end of the stream. *)

  val next_backward : source -> pos:int -> (string * int) option
  (** Record ending at [pos] and the position before it; [None] at the
      start of the stream. *)

  val walk : source -> direction -> unit -> string option
  (** The payloads one call at a time, from the first record
      ([`Forward]) or the last ([`Backward]); [None] at the end. Each
      record's bytes are requested in scan order, with [want] set to the
      scan direction ([`High] forward, [`Low] backward). *)
end

(** LEB128-style varints, used by the zip layer's block codec. *)
module Varint : sig
  val add : Buffer.t -> int -> unit

  val read : string -> int -> int * int
  (** (value, next position). Raises [Corrupt_record] on a varint that
      is truncated, longer than 9 bytes (the most {!add} writes for a
      non-negative [int]), or decodes negative. *)
end

val temp_path : config -> string
(** Fresh temp file under [config.dir] (or the system temp dir). *)

val remove_quietly : string -> unit

(** Crash-safe output channels: stream into [path ^ ".part"], atomically
    rename over [path] on {!Atomic_out.commit} (fsyncing first when
    [durable]). The final path never holds a partial stream. *)
module Atomic_out : sig
  type ch

  val create : ?durable:bool -> string -> ch
  val channel : ch -> out_channel
  val commit : ch -> unit
  val abort : ch -> unit
end
