(* The in-memory store: the paper's "virtual memory" answer and the
   default backend. Records are framed exactly as the file stores frame
   them — the checksummed layout by default, the seed's unchecked
   [u32 len | payload | u32 len] when [config.legacy_format] asks — so
   [mem] and [paged] move the same bytes and differ only in medium.
   Reads sniff the signature and walk through [Apt_store.Record_codec],
   which turns every integrity failure into a typed [Apt_error]. *)

open Apt_store

let tally field stats bytes =
  match stats with Some s -> Io_stats.bump (field s) bytes | None -> ()

let read_tally = tally (fun s -> s.Io_stats.bytes_read)
let write_tally = tally (fun s -> s.Io_stats.bytes_written)

let open_reader data stats dir =
  let size = String.length data in
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
          String.sub data pos len);
    }
  in
  let format = Record_codec.sniff source in
  (* the signature was inspected, like any other store's sniff read *)
  read_tally stats (Record_codec.data_start format);
  let walk = Record_codec.walk format source dir in
  let next () =
    match walk () with
    | Some p as payload ->
        read_tally stats (String.length p + Record_codec.overhead format);
        payload
    | None -> None
  in
  { next; close_reader = ignore }

let make config : t =
  let format = if config.legacy_format then Legacy else Framed_v1 in
  {
    s_name = "mem";
    start =
      (fun stats ->
        let buf = Buffer.create 4096 in
        Buffer.add_string buf (Record_codec.start_marker format);
        (* the signature hits the medium like any other byte *)
        write_tally stats (Record_codec.data_start format);
        let records = ref 0 in
        {
          put =
            (fun payload ->
              let header, trailer = Record_codec.frame format payload in
              Buffer.add_string buf header;
              Buffer.add_string buf payload;
              Buffer.add_string buf trailer;
              incr records;
              write_tally stats
                (String.length payload + Record_codec.overhead format));
          close =
            (fun () ->
              let data = Buffer.contents buf in
              {
                f_store = "mem";
                f_size = String.length data;
                f_records = !records;
                f_path = None;
                f_read = open_reader data;
                f_dispose = ignore;
              });
        });
  }
