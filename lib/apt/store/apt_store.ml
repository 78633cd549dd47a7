(* The pluggable APT store layer.

   A store moves opaque byte records (the payloads produced by
   [Node.encode]) to and from some medium and hands them back as a
   sequential stream readable from either end — the only access pattern
   the alternating-pass evaluator ever needs. The [Aptfile] façade keeps
   the node codec and record accounting; stores own the on-medium layout
   and the byte/page/seek accounting.

   Since the resilience PR the byte-compatible stores write a *framed*
   layout: the file opens with a 4-byte version signature and every
   record carries its CRC32 on both sides, so torn writes, short reads
   and bit flips are detected at read time and reported as typed
   [Apt_error] values with file offsets. Legacy (seed-format) files
   remain readable: readers sniff the signature and fall back to the
   unchecked legacy frame. *)

type direction = [ `Forward | `Backward ]

(* ---- deterministic fault injection (see Store_faulty) ---- *)

type fault_kind = Transient_io | Short_read | Bit_flip | Torn_write

type fault_spec = {
  f_seed : int;
  f_rate : float;  (** per-opportunity injection probability, in [0,1] *)
  f_kinds : fault_kind list;
}

type config = {
  dir : string option;  (** backing directory; [None] = system temp dir *)
  page_size : int;
  pool_pages : int;  (** buffer-pool capacity, in pages *)
  prefetch_pages : int;  (** read-ahead window on sequential access *)
  zip_block : int;  (** records per compressed block in zip layers *)
  durable : bool;  (** fsync backing files before the atomic rename *)
  legacy_format : bool;  (** write the unchecked seed layout (benches) *)
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
    legacy_format = false;
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

type writer = { put : string -> unit; close : unit -> file }
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

(* ---- the legacy record frame, shared by every on-medium layout ----

   4-byte little-endian payload length on both sides of the payload, so
   the stream can be walked from either end with O(1) buffering. *)

module Frame = struct
  let overhead = 8

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
end

(* ---- the framed (checksummed) record format, version 1 ----

   File   := "APT1" record*
   record := u32 len | u32 crc32(payload) | payload | u32 crc | u32 len

   The (len, crc) pair sits on both sides, so the stream is still
   walkable from either end; the duplicate is also a cross-check — a
   flipped length byte makes header and trailer disagree before the
   checksum is even consulted. *)

type format = Framed_v1 | Legacy

module Framed = struct
  let magic = "APT1"
  let data_start = String.length magic
  let overhead = 16
end

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

  (* Decide the on-medium format from the first bytes of the file. A
     signature within one byte of "APT1" is treated as a damaged or
     future version — not silently parsed as a legacy stream. *)
  let sniff_prefix ~path ~size prefix =
    if size = 0 then Legacy
    else if size >= Framed.data_start && String.length prefix >= Framed.data_start
    then begin
      let head = String.sub prefix 0 Framed.data_start in
      if String.equal head Framed.magic then Framed_v1
      else
        let matching = ref 0 in
        String.iteri
          (fun i c -> if Char.equal c Framed.magic.[i] then incr matching)
          head;
        if !matching >= String.length Framed.magic - 1 then
          Apt_error.raise_ (Apt_error.Version_mismatch { path; found = head })
        else Legacy
    end
    else Legacy

  let sniff (src : source) =
    if src.src_size < Framed.data_start then
      sniff_prefix ~path:src.src_path ~size:src.src_size ""
    else
      sniff_prefix ~path:src.src_path ~size:src.src_size
        (src.src_read ~pos:0 ~len:Framed.data_start ~want:`High)

  let data_start = function Framed_v1 -> Framed.data_start | Legacy -> 0
  let overhead = function Framed_v1 -> Framed.overhead | Legacy -> Frame.overhead
  let start_marker = function Framed_v1 -> Framed.magic | Legacy -> ""

  (* header and trailer strings for [payload] *)
  let frame format payload =
    let len = Frame.u32_to_string (String.length payload) in
    match format with
    | Legacy -> (len, len)
    | Framed_v1 ->
        let crc = Frame.u32_to_string (Crc32.digest payload) in
        (len ^ crc, crc ^ len)

  let check_crc src ~offset ~stored payload =
    let computed = Crc32.digest payload in
    if computed <> stored then
      corrupt src ~offset
        (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)"
           stored computed)

  (* One record starting at [pos], scanning up. Returns (payload, next
     position), or [None] at the end of the stream. *)
  let next_forward format (src : source) ~pos =
    if pos >= src.src_size then None
    else
      match format with
      | Legacy ->
          if pos + Frame.overhead > src.src_size then
            truncated src ~offset:pos "partial legacy frame";
          let len =
            Frame.u32_of_string (src.src_read ~pos ~len:4 ~want:`High) 0
          in
          if len < 0 || pos + len + Frame.overhead > src.src_size then
            truncated src ~offset:pos
              (Printf.sprintf "legacy header claims %d payload bytes" len);
          let payload = src.src_read ~pos:(pos + 4) ~len ~want:`High in
          Some (payload, pos + len + Frame.overhead)
      | Framed_v1 ->
          if pos + Framed.overhead > src.src_size then
            truncated src ~offset:pos "partial record frame";
          let header = src.src_read ~pos ~len:8 ~want:`High in
          let len = Frame.u32_of_string header 0 in
          let crc = Frame.u32_of_string header 4 in
          if len < 0 || pos + len + Framed.overhead > src.src_size then
            truncated src ~offset:pos
              (Printf.sprintf "header claims %d payload bytes past EOF" len);
          (* bytes are requested in scan order (payload before trailer):
             a pooled source serves each page before it has to evict it *)
          let payload = src.src_read ~pos:(pos + 8) ~len ~want:`High in
          let trailer = src.src_read ~pos:(pos + 8 + len) ~len:8 ~want:`High in
          if Frame.u32_of_string trailer 4 <> len then
            corrupt src ~offset:pos "trailer length disagrees with header";
          if Frame.u32_of_string trailer 0 <> crc then
            corrupt src ~offset:pos "trailer checksum disagrees with header";
          check_crc src ~offset:pos ~stored:crc payload;
          Some (payload, pos + len + Framed.overhead)

  (* One record ending at [pos], scanning down. *)
  let next_backward format (src : source) ~pos =
    let floor = data_start format in
    if pos <= floor then None
    else
      match format with
      | Legacy ->
          if pos - Frame.overhead < floor then
            truncated src ~offset:pos "partial legacy frame";
          let len =
            Frame.u32_of_string (src.src_read ~pos:(pos - 4) ~len:4 ~want:`Low) 0
          in
          if len < 0 || pos - len - Frame.overhead < floor then
            truncated src ~offset:pos
              (Printf.sprintf "legacy trailer claims %d payload bytes" len);
          let payload = src.src_read ~pos:(pos - 4 - len) ~len ~want:`Low in
          Some (payload, pos - len - Frame.overhead)
      | Framed_v1 ->
          if pos - Framed.overhead < floor then
            truncated src ~offset:pos "partial record frame";
          let trailer = src.src_read ~pos:(pos - 8) ~len:8 ~want:`Low in
          let crc = Frame.u32_of_string trailer 0 in
          let len = Frame.u32_of_string trailer 4 in
          if len < 0 || pos - len - Framed.overhead < floor then
            truncated src ~offset:(pos - 8)
              (Printf.sprintf "trailer claims %d payload bytes before start" len);
          let start = pos - len - Framed.overhead in
          (* header and payload in one request, in scan order, so the
             lowest page is fetched only from the header up *)
          let framed = src.src_read ~pos:start ~len:(8 + len) ~want:`Low in
          let header = String.sub framed 0 8 in
          let payload = String.sub framed 8 len in
          if Frame.u32_of_string header 0 <> len then
            corrupt src ~offset:start "header length disagrees with trailer";
          if Frame.u32_of_string header 4 <> crc then
            corrupt src ~offset:start "header checksum disagrees with trailer";
          check_crc src ~offset:start ~stored:crc payload;
          Some (payload, start)

  let walk format src dir =
    let step, start =
      match dir with
      | `Forward -> (next_forward, data_start format)
      | `Backward -> (next_backward, src.src_size)
    in
    let pos = ref start in
    fun () ->
      match step format src ~pos:!pos with
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
