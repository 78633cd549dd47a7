(* The in-memory store: the paper's "virtual memory" answer and the
   default backend. Records are framed exactly as the file stores frame
   them, so [mem] and [paged] move the same bytes and differ only in
   medium. Reads check the signature and walk through
   [Apt_store.Record_codec], which turns every integrity failure into a
   typed [Apt_error].

   A file is a list of [Bytes] chunks, written in place and never
   copied: the first is 4 KiB, so the many tiny pass files of small
   inputs stay small, and each next one doubles up to 64 KiB. A
   doubling buffer would allocate about twice a file's bytes on the way
   and copy them once more at close, all of it straight into the major
   heap. *)

open Apt_store

let tally field stats bytes =
  match stats with Some s -> Io_stats.bump (field s) bytes | None -> ()

let read_tally = tally (fun s -> s.Io_stats.bytes_read)
let write_tally = tally (fun s -> s.Io_stats.bytes_written)
let first_chunk = 4096
let max_chunk = 65536

(* ---- writing ---- *)

type sink = {
  mutable full : Bytes.t list;  (** filled chunks, newest first *)
  mutable cur : Bytes.t;
  mutable fill : int;  (** bytes used in [cur] *)
  mutable size : int;  (** bytes written in all *)
}

let rec add sink s pos =
  let n = String.length s - pos in
  if n > 0 then begin
    let room = Bytes.length sink.cur - sink.fill in
    if room = 0 then begin
      sink.full <- sink.cur :: sink.full;
      sink.cur <- Bytes.create (min max_chunk (2 * Bytes.length sink.cur));
      sink.fill <- 0;
      add sink s pos
    end
    else begin
      let k = min n room in
      Bytes.blit_string s pos sink.cur sink.fill k;
      sink.fill <- sink.fill + k;
      sink.size <- sink.size + k;
      if k < n then add sink s (pos + k)
    end
  end

(* ---- reading ----

   [starts.(i)] is the file offset of [chunks.(i)]'s first byte. The
   evaluator reads a file front to back or back to front, so the chunk
   of each read is the cursor's or a neighbour of it. *)

type image = { chunks : Bytes.t array; starts : int array; size : int }

let image_of_sink sink =
  let chunks = Array.of_list (List.rev (sink.cur :: sink.full)) in
  let starts = Array.make (Array.length chunks) 0 in
  for i = 1 to Array.length chunks - 1 do
    starts.(i) <- starts.(i - 1) + Bytes.length chunks.(i - 1)
  done;
  { chunks; starts; size = sink.size }

let image_of_string data =
  {
    chunks = [| Bytes.unsafe_of_string data |];
    starts = [| 0 |];
    size = String.length data;
  }

let chunk_end img i =
  img.starts.(i) + Bytes.length img.chunks.(i)

(* the index of the chunk holding offset [pos], moving [cursor] there *)
let seek img cursor pos =
  while pos < img.starts.(!cursor) do
    decr cursor
  done;
  while pos >= chunk_end img !cursor do
    incr cursor
  done;
  !cursor

(* [len] bytes from [pos], all below [img.size]: one [sub_string] when
   they sit in one chunk; a read that straddles chunks assembles them *)
let read_bytes img cursor pos len =
  if len = 0 then ""
  else
    let i = seek img cursor pos in
    let off = pos - img.starts.(i) in
    if pos + len <= chunk_end img i then
      Bytes.sub_string img.chunks.(i) off len
    else begin
      let out = Bytes.create len in
      let k = Bytes.length img.chunks.(i) - off in
      Bytes.blit img.chunks.(i) off out 0 k;
      let dst = ref k and i = ref (i + 1) in
      while !dst < len do
        let k = min (len - !dst) (Bytes.length img.chunks.(!i)) in
        Bytes.blit img.chunks.(!i) 0 out !dst k;
        dst := !dst + k;
        incr i
      done;
      Bytes.unsafe_to_string out
    end

let read_image img stats dir =
  let size = img.size in
  let cursor = ref 0 in
  let source =
    {
      Record_codec.src_path = None;
      src_size = size;
      src_read =
        (fun ~pos ~len ~want:_ ->
          if pos < 0 || pos + len > size then
            Apt_error.raise_
              (Apt_error.Truncated_file
                 { path = None; offset = pos; detail = "read past end of buffer" });
          read_bytes img cursor pos len);
    }
  in
  Record_codec.sniff ~path:None
    (read_bytes img cursor 0 (min size Framed.data_start));
  (* the signature was inspected, like the paged store's sniff read *)
  read_tally stats Framed.data_start;
  let walk = Record_codec.walk source dir in
  let next () =
    match walk () with
    | Some p as payload ->
        read_tally stats (String.length p + Framed.overhead);
        payload
    | None -> None
  in
  { next; close_reader = ignore }

let open_reader data = read_image (image_of_string data)

let start stats : writer =
  let sink =
    { full = []; cur = Bytes.create first_chunk; fill = 0; size = 0 }
  in
  add sink Framed.magic 0;
  (* the signature hits the medium like any other byte *)
  write_tally stats Framed.data_start;
  let records = ref 0 in
  {
    put =
      (fun payload ->
        let header, trailer = Record_codec.frame payload in
        add sink header 0;
        add sink payload 0;
        add sink trailer 0;
        incr records;
        write_tally stats (String.length payload + Framed.overhead));
    close =
      (fun () ->
        let img = image_of_sink sink in
        {
          f_size = img.size;
          f_records = !records;
          f_path = None;
          f_read = read_image img;
          f_dispose = ignore;
        });
    abort = ignore;
  }
