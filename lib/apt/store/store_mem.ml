(* The in-memory store: the paper's "virtual memory" answer and the
   default backend. Records are framed exactly as the file stores frame
   them, so [mem] and [paged] move the same bytes and differ only in
   medium. Reads check the signature and walk through
   [Apt_store.Record_codec], which turns every integrity failure into a
   typed [Apt_error]. *)

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
  Record_codec.sniff ~path:None data;
  (* the signature was inspected, like any other store's sniff read *)
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

let make (_ : config) : t =
  {
    s_name = "mem";
    start =
      (fun stats ->
        let buf = Buffer.create 4096 in
        Buffer.add_string buf Framed.magic;
        (* the signature hits the medium like any other byte *)
        write_tally stats Framed.data_start;
        let records = ref 0 in
        {
          put =
            (fun payload ->
              let header, trailer = Record_codec.frame payload in
              Buffer.add_string buf header;
              Buffer.add_string buf payload;
              Buffer.add_string buf trailer;
              incr records;
              write_tally stats (String.length payload + Framed.overhead));
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
          abort = ignore;
        });
  }
