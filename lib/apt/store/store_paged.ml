(* The paged file store, the one file-backed medium: a framed record
   stream in a temp file, with all I/O going through a fixed-size page
   buffer pool ([Store_pager]), so a backward scan costs one physical
   read per page instead of two seeks per record. On a pool miss during
   a sequential scan the pager reads ahead [config.prefetch_pages] pages
   in the scan direction in the same physical operation; the
   alternating-pass evaluator's access pattern is purely sequential, so
   nearly every page after the first arrives before its use.

   Record decoding is [Apt_store.Record_codec] over the pool: the codec's
   [want] direction tells the pool which neighbouring bytes the decode
   certainly needs next, so a frame probe never pays for the far side of
   the page. The file signature is checked with one raw (unpooled) read,
   and the pool's page-0 floor excludes those bytes — a full scan still
   moves exactly [size] bytes.

   This is also the one fault path ([config.faults], --apt-faults
   seed:rate:kinds). Read-side kinds (transient EIO, short reads) are
   injected inside the pager, where the retry policy can absorb them.
   Write-side kinds damage the medium at writer close the way real
   storage fails: torn writes truncate the file mid-stream, bit flips
   corrupt single bits in place — below the checksum layer, so the
   damage is always there for the readers to detect. One RNG seeded
   with [f_seed] rolls once per written record, so a campaign is
   reproducible byte for byte. *)

open Apt_store

(* ---- write-side medium damage ---- *)

type action = Flip | Tear

let write_kinds spec =
  List.filter (function Bit_flip | Torn_write -> true | _ -> false) spec.f_kinds

(* One roll per written record: each record is an opportunity for the
   medium to fail underneath it. *)
let plan_damage spec kinds rng ~records =
  let actions = ref [] in
  for _ = 1 to records do
    if Random.State.float rng 1.0 < spec.f_rate then
      match List.nth kinds (Random.State.int rng (List.length kinds)) with
      | Bit_flip -> actions := Flip :: !actions
      | Torn_write -> actions := Tear :: !actions
      | _ -> ()
  done;
  List.rev !actions

(* Damage the closed backing file in place. Flips touch one random bit
   past the signature; tears cut the file at a random offset past the
   signature. Returns the file's new size. *)
let apply_damage rng path actions =
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  let data = Bytes.of_string (really_input_string ic size) in
  close_in ic;
  let floor = min Framed.data_start size in
  let cut = ref size in
  List.iter
    (function
      | Tear ->
          if size > floor + 1 then
            cut := min !cut (floor + 1 + Random.State.int rng (size - floor - 1))
      | Flip ->
          if size > floor then begin
            let off = floor + Random.State.int rng (size - floor) in
            let bit = Random.State.int rng 8 in
            Bytes.set data off
              (Char.chr (Char.code (Bytes.get data off) lxor (1 lsl bit)))
          end)
    actions;
  let oc = open_out_bin path in
  output_bytes oc (Bytes.sub data 0 !cut);
  close_out oc;
  !cut

(* The bytes left on the medium after a writer of [records] records and
   [size] bytes closed under [faults]. *)
let damage faults path ~records ~size =
  match faults with
  | Some spec when write_kinds spec <> [] ->
      let rng = Random.State.make [| spec.f_seed |] in
      let actions = plan_damage spec (write_kinds spec) rng ~records in
      if actions = [] then size else min size (apply_damage rng path actions)
  | _ -> size

let open_reader config path size stats dir =
  (* check the signature with a raw read so the pool can floor page 0
     at the signature boundary *)
  Record_codec.sniff ~path:(Some path)
    (let ic = open_in_bin path in
     let head =
       try really_input_string ic (min size Framed.data_start)
       with End_of_file -> ""
     in
     close_in ic;
     head);
  let pager =
    Store_pager.create ?stats ?faults:config.faults
      ~page_size:config.page_size ~capacity:config.pool_pages
      ~prefetch:config.prefetch_pages ~path ~size ()
  in
  (* charge the signature bytes through the pager so the accounting
     matches the mem store (and leaves the head at the first record) *)
  ignore (Store_pager.pread pager ~pos:0 ~len:Framed.data_start);
  let source =
    {
      Record_codec.src_path = Some path;
      src_size = size;
      src_read = (fun ~pos ~len ~want -> Store_pager.read pager ~pos ~len ~want);
    }
  in
  {
    next = Record_codec.walk source dir;
    close_reader = (fun () -> Store_pager.close pager);
  }

let start config stats : writer =
  let path = temp_path config in
  let w = Store_pager.create_writer ?stats ~page_size:config.page_size ~path () in
  Store_pager.append w Framed.magic;
  let records = ref 0 in
  {
    put =
      (fun payload ->
        let header, trailer = Record_codec.frame payload in
        Store_pager.append w header;
        Store_pager.append w payload;
        Store_pager.append w trailer;
        incr records);
    close =
      (fun () ->
        let size = Store_pager.close_writer w in
        {
          (* a tear shrinks the medium; readers still expect the [size]
             bytes written, so they see the loss *)
          f_size = damage config.faults path ~records:!records ~size;
          f_records = !records;
          f_path = Some path;
          f_read = (fun stats dir -> open_reader config path size stats dir);
          f_dispose = (fun () -> remove_quietly path);
        });
    abort =
      (fun () ->
        Store_pager.abort_writer w;
        remove_quietly path);
  }
