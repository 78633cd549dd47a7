(* The paged file store, the one file-backed medium: a framed record
   stream in a temp file, with all I/O going through a fixed-size page
   buffer pool ([Store_pager]), so a backward scan costs one physical
   read per page instead of two seeks per record. On a pool miss during
   a sequential scan the pager reads ahead [config.prefetch_pages] pages
   in the scan direction in the same physical operation; the
   alternating-pass evaluator's access pattern is purely sequential, so
   nearly every page after the first arrives before its use. Read-side
   faults ([config.faults]) are injected inside the pager too.

   Record decoding is [Apt_store.Record_codec] over the pool: the codec's
   [want] direction tells the pool which neighbouring bytes the decode
   certainly needs next, so a frame probe never pays for the far side of
   the page. The file signature is sniffed with one raw (unpooled) read,
   and the pool's page-0 floor excludes those bytes — a full scan still
   moves exactly [size] bytes. *)

open Apt_store

let make config : t =
  let format = if config.legacy_format then Legacy else Framed_v1 in
  let open_reader path size stats dir =
    (* sniff first with a raw read so the pool can floor page 0 at the
       signature boundary *)
    let r_format =
      Record_codec.sniff_prefix ~path:(Some path) ~size
        (if size >= Framed.data_start then begin
           let ic = open_in_bin path in
           let prefix =
             try really_input_string ic Framed.data_start
             with End_of_file -> ""
           in
           close_in ic;
           prefix
         end
         else "")
    in
    let data_start = Record_codec.data_start r_format in
    let pager =
      Store_pager.create ?stats ~data_start ?faults:config.faults
        ~page_size:config.page_size ~capacity:config.pool_pages
        ~prefetch:config.prefetch_pages ~path ~size ()
    in
    (* charge the signature bytes through the pager so the accounting
       matches the other stores (and leaves the head at [data_start]) *)
    if data_start > 0 then ignore (Store_pager.pread pager ~pos:0 ~len:data_start);
    let source =
      {
        Record_codec.src_path = Some path;
        src_size = size;
        src_read = (fun ~pos ~len ~want -> Store_pager.read pager ~pos ~len ~want);
      }
    in
    {
      next = Record_codec.walk r_format source dir;
      close_reader = (fun () -> Store_pager.close pager);
    }
  in
  {
    s_name = "paged";
    start =
      (fun stats ->
        let path = temp_path config in
        let w =
          Store_pager.create_writer ?stats ~durable:config.durable
            ~page_size:config.page_size ~path ()
        in
        Store_pager.append w (Record_codec.start_marker format);
        let records = ref 0 in
        {
          put =
            (fun payload ->
              let header, trailer = Record_codec.frame format payload in
              Store_pager.append w header;
              Store_pager.append w payload;
              Store_pager.append w trailer;
              incr records);
          close =
            (fun () ->
              let size = Store_pager.close_writer w in
              {
                f_store = "paged";
                f_size = size;
                f_records = !records;
                f_path = Some path;
                f_read = (fun stats dir -> open_reader path size stats dir);
                f_dispose = (fun () -> remove_quietly path);
              });
        });
  }
