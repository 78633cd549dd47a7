(* The pluggable APT store layer.

   A store moves opaque byte records (the payloads produced by
   [Node.encode]) to and from some medium and hands them back as a
   sequential stream readable from either end — the only access pattern
   the alternating-pass evaluator ever needs. The [Aptfile] façade keeps
   the node codec and record accounting; stores own the on-medium layout
   and the byte/page/seek accounting.

   Every byte-compatible store writes one *framed* layout: the file
   opens with a 4-byte version signature and every record carries its
   CRC32 on both sides, so torn writes, short reads and bit flips are
   detected at read time and reported as typed [Apt_error] values with
   file offsets. A file that does not open with the signature is
   refused, never parsed. *)

type direction = [ `Forward | `Backward ]

(* ---- deterministic fault injection ----

   Read-side kinds are injected inside [Store_pager]'s transfers, where
   the retry policy can absorb them; write-side kinds damage the medium
   at [Store_paged]'s writer close. *)

type fault_kind = Transient_io | Short_read | Bit_flip | Torn_write

type fault_spec = {
  f_seed : int;
  f_rate : float;  (** per-opportunity injection probability, in [0,1] *)
  f_kinds : fault_kind list;
}

let fault_kinds =
  [
    ("transient", Transient_io);
    ("short", Short_read);
    ("flip", Bit_flip);
    ("torn", Torn_write);
  ]

(* "seed:rate:kinds" with kinds a comma list of transient|short|flip|torn
   or "all", e.g. "42:0.01:transient,flip". *)
let parse_spec s =
  Lg_support.Kind_spec.parse ~noun:"fault" ~example:"42:0.01:transient,flip"
    ~kinds:fault_kinds s
  |> Result.map (fun (f_seed, f_rate, f_kinds) -> { f_seed; f_rate; f_kinds })

let spec_to_string { f_seed; f_rate; f_kinds } =
  Lg_support.Kind_spec.render ~kinds:fault_kinds (f_seed, f_rate, f_kinds)

type config = {
  dir : string option;  (** backing directory; [None] = system temp dir *)
  page_size : int;
  pool_pages : int;  (** buffer-pool capacity, in pages *)
  prefetch_pages : int;  (** read-ahead window on sequential access *)
  zip_block : int;  (** records per compressed block in zip layers *)
  durable : bool;  (** fsync backing files before the atomic rename *)
  faults : fault_spec option;  (** deterministic fault injection *)
}

let default_config =
  {
    dir = None;
    page_size = 4096;
    pool_pages = 8;
    prefetch_pages = 2;
    zip_block = 32;
    durable = false;
    faults = None;
  }

(* ---- the erased, first-class store values ---- *)

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
}
type t = { s_name : string; start : Io_stats.t option -> writer }

(* ---- CRC32 (IEEE 802.3), the record checksum ---- *)

module Crc32 = struct
  let table =
    Lg_support.Once.make (fun () ->
        Array.init 256 (fun n ->
            let c = ref n in
            for _ = 0 to 7 do
              c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
            done;
            !c))

  let digest s =
    let table = Lg_support.Once.force table in
    let c = ref 0xffffffff in
    String.iter
      (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
      s;
    !c lxor 0xffffffff
end

(* ---- the framed (checksummed) record format, version 1 ----

   File   := "APT1" record*
   record := u32 len | u32 crc32(payload) | payload | u32 crc | u32 len

   All u32 fields are little-endian. The (len, crc) pair sits on both
   sides, so the stream is walkable from either end with O(1)
   buffering; the duplicate is also a cross-check — a flipped length
   byte makes header and trailer disagree before the checksum is even
   consulted. *)

module Framed = struct
  let magic = "APT1"
  let data_start = String.length magic
  let overhead = 16
end

let u32_to_string n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 (n land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 3 ((n lsr 24) land 0xff);
  Bytes.unsafe_to_string b

let u32_of_string s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

module Record_codec = struct
  type source = {
    src_path : string option;
    src_size : int;
    src_read : pos:int -> len:int -> want:[ `Low | `High ] -> string;
  }

  let corrupt (src : source) ~offset detail =
    Apt_error.raise_
      (Apt_error.Corrupt_record { path = src.src_path; offset; detail })

  let truncated (src : source) ~offset detail =
    Apt_error.raise_
      (Apt_error.Truncated_file { path = src.src_path; offset; detail })

  (* Check the signature against the file's first bytes. Anything but
     "APT1" — damaged, foreign or future-versioned — is refused. *)
  let sniff ~path head =
    let n = Framed.data_start in
    if String.length head < n then
      Apt_error.raise_
        (Apt_error.Truncated_file
           {
             path;
             offset = String.length head;
             detail = "file is shorter than the APT1 signature";
           });
    let head = String.sub head 0 n in
    if not (String.equal head Framed.magic) then
      Apt_error.raise_ (Apt_error.Version_mismatch { path; found = head })

  (* header and trailer strings for [payload] *)
  let frame payload =
    let len = u32_to_string (String.length payload) in
    let crc = u32_to_string (Crc32.digest payload) in
    (len ^ crc, crc ^ len)

  let check_crc src ~offset ~stored payload =
    let computed = Crc32.digest payload in
    if computed <> stored then
      corrupt src ~offset
        (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)"
           stored computed)

  (* One record starting at [pos], scanning up. Returns (payload, next
     position), or [None] at the end of the stream. *)
  let next_forward (src : source) ~pos =
    if pos >= src.src_size then None
    else begin
      if pos + Framed.overhead > src.src_size then
        truncated src ~offset:pos "partial record frame";
      let header = src.src_read ~pos ~len:8 ~want:`High in
      let len = u32_of_string header 0 in
      let crc = u32_of_string header 4 in
      if len < 0 || pos + len + Framed.overhead > src.src_size then
        truncated src ~offset:pos
          (Printf.sprintf "header claims %d payload bytes past EOF" len);
      (* bytes are requested in scan order (payload before trailer):
         a pooled source serves each page before it has to evict it *)
      let payload = src.src_read ~pos:(pos + 8) ~len ~want:`High in
      let trailer = src.src_read ~pos:(pos + 8 + len) ~len:8 ~want:`High in
      if u32_of_string trailer 4 <> len then
        corrupt src ~offset:pos "trailer length disagrees with header";
      if u32_of_string trailer 0 <> crc then
        corrupt src ~offset:pos "trailer checksum disagrees with header";
      check_crc src ~offset:pos ~stored:crc payload;
      Some (payload, pos + len + Framed.overhead)
    end

  (* One record ending at [pos], scanning down. *)
  let next_backward (src : source) ~pos =
    let floor = Framed.data_start in
    if pos <= floor then None
    else begin
      if pos - Framed.overhead < floor then
        truncated src ~offset:pos "partial record frame";
      let trailer = src.src_read ~pos:(pos - 8) ~len:8 ~want:`Low in
      let crc = u32_of_string trailer 0 in
      let len = u32_of_string trailer 4 in
      if len < 0 || pos - len - Framed.overhead < floor then
        truncated src ~offset:(pos - 8)
          (Printf.sprintf "trailer claims %d payload bytes before start" len);
      let start = pos - len - Framed.overhead in
      (* header and payload in one request, in scan order, so the
         lowest page is fetched only from the header up *)
      let framed = src.src_read ~pos:start ~len:(8 + len) ~want:`Low in
      let header = String.sub framed 0 8 in
      let payload = String.sub framed 8 len in
      if u32_of_string header 0 <> len then
        corrupt src ~offset:start "header length disagrees with trailer";
      if u32_of_string header 4 <> crc then
        corrupt src ~offset:start "header checksum disagrees with trailer";
      check_crc src ~offset:start ~stored:crc payload;
      Some (payload, start)
    end

  let walk src dir =
    let step, start =
      match dir with
      | `Forward -> (next_forward, Framed.data_start)
      | `Backward -> (next_backward, src.src_size)
    in
    let pos = ref start in
    fun () ->
      match step src ~pos:!pos with
      | None -> None
      | Some (payload, p) ->
          pos := p;
          Some payload
end

(* ---- varints, shared by the zip layer's block codec ---- *)

module Varint = struct
  let add buf n =
    let rec go u =
      if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (u land 0x7f)));
        go (u lsr 7)
      end
    in
    if n < 0 then invalid_arg "Apt_store.Varint.add: negative";
    go n

  (* 63-bit non-negative ints fit in 9 groups of 7 bits *)
  let max_bytes = 9

  let read s start =
    let corrupt offset detail =
      Apt_error.raise_
        (Apt_error.Corrupt_record { path = None; offset; detail })
    in
    let rec go pos shift acc =
      if pos >= String.length s then corrupt pos "truncated varint";
      if pos - start >= max_bytes then
        corrupt start (Printf.sprintf "varint longer than %d bytes" max_bytes);
      let byte = Char.code s.[pos] in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 <> 0 then go (pos + 1) (shift + 7) acc
      else if acc < 0 then corrupt start "varint decodes negative"
      else (acc, pos + 1)
    in
    go start 0 0
end

let temp_path config =
  let dir =
    match config.dir with Some d -> d | None -> Filename.get_temp_dir_name ()
  in
  Filename.temp_file ~temp_dir:dir "apt" ".tmp"

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

(* ---- crash-safe output channels ----

   Writers stream into [path ^ ".part"] and atomically rename over the
   final path on [commit] (optionally fsyncing first, [--apt-durable]).
   A crash mid-write can only ever leave a stale ".part" file behind —
   the final path never holds a partial stream. *)

module Atomic_out = struct
  type ch = { final : string; part : string; oc : out_channel; durable : bool }

  let create ?(durable = false) path =
    let part = path ^ ".part" in
    { final = path; part; oc = open_out_bin part; durable }

  let channel a = a.oc

  let commit a =
    flush a.oc;
    if a.durable then (try Unix.fsync (Unix.descr_of_out_channel a.oc) with Unix.Unix_error _ -> ());
    close_out a.oc;
    Sys.rename a.part a.final

  let abort a =
    (try close_out a.oc with Sys_error _ -> ());
    remove_quietly a.part
end
