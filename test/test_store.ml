(* Tests for the APT store subsystem: both stores must stream records
   back in both directions, pin the framed on-medium format exactly and
   refuse any other; corrupt or truncated backing files and hostile
   record payloads must fail loudly, with typed errors; and write-side
   fault specs must damage the medium. *)
open Lg_support
open Lg_apt
open Apt_store

let with_temp_dir f =
  let dir = Filename.temp_file "storetest" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let config_in dir = { default_config with dir = Some dir }

(* A config that forces multi-page records. *)
let tiny_pages dir = { (config_in dir) with page_size = 32 }

let drain (r : reader) =
  let rec go acc =
    match r.next () with Some p -> go (p :: acc) | None -> List.rev acc
  in
  let all = go [] in
  r.close_reader ();
  all

(* The writer of the store named [name] under [config], as
   [Aptfile.writer] starts it. *)
let store ~config name =
  match (Aptfile.backend_of_store_name name).Aptfile.store with
  | Aptfile.Mem -> Store_mem.start
  | Aptfile.Paged -> Store_paged.start config

let store_names = List.map (fun (name, _, _) -> name) Aptfile.stores

let store_roundtrip name start payloads =
  let w = start None in
  List.iter w.put payloads;
  let f = w.close () in
  Alcotest.(check int)
    (name ^ ": record count")
    (List.length payloads) f.f_records;
  Alcotest.(check (list string))
    (name ^ ": forward")
    payloads
    (drain (f.f_read None `Forward));
  Alcotest.(check (list string))
    (name ^ ": backward = reverse")
    (List.rev payloads)
    (drain (f.f_read None `Backward));
  f.f_dispose ()

let sample_payloads =
  [ "alpha"; ""; "alphabet"; String.make 10000 'x'; "\x00\xff\x7f"; "z" ]

let every_store dir k =
  List.iter
    (fun name -> k name (store ~config:(config_in dir) name))
    store_names

let test_roundtrip_all_stores () =
  with_temp_dir @@ fun dir ->
  every_store dir (fun name store -> store_roundtrip name store sample_payloads)

let test_empty_and_single () =
  with_temp_dir @@ fun dir ->
  every_store dir (fun name store ->
      store_roundtrip (name ^ " empty") store [];
      store_roundtrip (name ^ " single") store [ "only" ])

(* Records many pages wide still round-trip, and so do tiny pages
   generally. *)
let test_tiny_pages () =
  with_temp_dir @@ fun dir ->
  store_roundtrip "paged tiny pages"
    (store ~config:(tiny_pages dir) "paged")
    [ String.make 500 'a'; "b"; ""; String.make 77 'c'; "dd" ]

let payloads_gen =
  QCheck.Gen.(
    list_size (int_bound 60)
      (oneof
         [
           string_size (int_bound 20);
           string_size (int_range 100 600);
           return "";
         ]))

let prop_roundtrip_random =
  QCheck.Test.make ~name:"every store round-trips random payload lists"
    ~count:60
    (QCheck.make payloads_gen)
    (fun payloads ->
      with_temp_dir @@ fun dir ->
      List.iter
        (fun name ->
          let w = store ~config:(tiny_pages dir) name None in
          List.iter w.put payloads;
          let f = w.close () in
          let fwd = drain (f.f_read None `Forward) in
          let bwd = drain (f.f_read None `Backward) in
          f.f_dispose ();
          if fwd <> payloads then
            QCheck.Test.fail_reportf "%s: forward mismatch" name;
          if bwd <> List.rev payloads then
            QCheck.Test.fail_reportf "%s: backward mismatch" name)
        store_names;
      true)

(* ----- the on-medium formats, pinned byte for byte ----- *)

let le32 n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

(* the unchecked seed layout: [u32 len | payload | u32 len], no
   signature *)
let seed_bytes payloads =
  String.concat ""
    (List.map (fun p -> le32 (String.length p) ^ p ^ le32 (String.length p))
       payloads)

(* The framed golden image is spelled out with independently computed
   CRC-32 constants (IEEE polynomial, as zlib's crc32), so a codec bug
   cannot pin itself. *)
let framed_record ~crc p =
  le32 (String.length p) ^ le32 crc ^ p ^ le32 crc ^ le32 (String.length p)

let framed_bytes recs =
  "APT1" ^ String.concat "" (List.map (fun (p, crc) -> framed_record ~crc p) recs)

let file_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let pin_format_bytes dir ~config ~expected payloads =
  List.iter
    (fun name ->
      let w = store ~config name None in
      List.iter w.put payloads;
      let f = w.close () in
      Alcotest.(check int) (name ^ ": size") (String.length expected) f.f_size;
      (match f.f_path with
      | Some path ->
          Alcotest.(check string)
            (name ^ ": on-medium bytes")
            expected (file_bytes path)
      | None -> ());
      f.f_dispose ())
    [ "mem"; "paged" ];
  ignore dir

let test_framed_format_pin () =
  with_temp_dir @@ fun dir ->
  pin_format_bytes dir ~config:(config_in dir)
    ~expected:
      (framed_bytes
         [ ("AB", 0x30694c07); ("", 0x0); ("xyz", 0xeb8eba67) ])
    [ "AB"; ""; "xyz" ]

(* ----- corruption and truncation fail loudly, with typed errors ----- *)

let fails_to_read (f : file) dir =
  match drain (f.f_read None dir) with
  | exception Apt_error.Error _ -> true
  | _ -> false

let write_store ?(config_of = config_in) dir name payloads =
  let w = store ~config:(config_of dir) name None in
  List.iter w.put payloads;
  w.close ()

let patch_byte path offset value =
  let bytes = Bytes.of_string (file_bytes path) in
  Bytes.set bytes offset (Char.chr value);
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

(* ----- a head that is not APT1 is refused, never parsed ----- *)

let overwrite path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* [read]'s scans, in both directions, each raise an error [expected]
   accepts. *)
let expect_refused ~expected label read =
  List.iter
    (fun dirn ->
      match drain (read dirn) with
      | exception Apt_error.Error e when expected e -> ()
      | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: read as data" label)
    [ `Forward; `Backward ]

let version_mismatch = function
  | Apt_error.Version_mismatch _ -> true
  | _ -> false

let truncated = function Apt_error.Truncated_file _ -> true | _ -> false

let corrupt = function Apt_error.Corrupt_record _ -> true | _ -> false

(* A head that is not a whole APT1 signature is refused before any
   record is read: the first [next] of either scan raises an error
   [expected] accepts. Each head, made by [damage] from a file's bytes,
   goes under both readers: [mem]'s over the bytes themselves, [paged]'s
   over its backing file rewritten in place (at its written size, which
   the reader keeps). *)
let refuse_heads dir heads =
  let refused label expected read =
    List.iter
      (fun dirn ->
        match (read dirn).next () with
        | exception Apt_error.Error e when expected e -> ()
        | exception e ->
            Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
        | Some _ -> Alcotest.failf "%s: delivered a record" label
        | None -> Alcotest.failf "%s: read as an empty file" label)
      [ `Forward; `Backward ]
  in
  let framed = framed_bytes [ ("AB", 0x30694c07); ("xyz", 0xeb8eba67) ] in
  List.iter
    (fun (label, expected, damage) ->
      refused ("mem, " ^ label) expected
        (Store_mem.open_reader (damage framed) None))
    heads;
  List.iter
    (fun (label, expected, damage) ->
      let f = write_store dir "paged" [ "alpha"; "beta" ] in
      let path = Option.get f.f_path in
      overwrite path (damage (file_bytes path));
      refused ("paged, " ^ label) expected (f.f_read None);
      f.f_dispose ())
    heads

let map_byte off f data =
  String.mapi (fun i c -> if i = off then Char.chr (f (Char.code c)) else c) data

(* Two zeroed signature bytes, and a signature of a later format
   version. *)
let test_foreign_signature_refused () =
  with_temp_dir @@ fun dir ->
  refuse_heads dir
    [
      ( "zeroed signature",
        version_mismatch,
        fun d -> map_byte 1 (fun _ -> 0) (map_byte 0 (fun _ -> 0) d) );
      ("APT2", version_mismatch, map_byte 3 (fun _ -> Char.code '2'));
    ]

(* ----- scanning a framed file, and what a damaged one yields ----- *)

(* The bytes a writer leaves for [scan_payloads]: records at offsets 4,
   25, 41 and 63; 98 bytes in all. *)
let scan_payloads = [ "alpha"; ""; "burrow"; "gamma-delta-epsilon" ]

let scan_bytes () =
  Framed.magic
  ^ String.concat ""
      (List.map
         (fun p ->
           let header, trailer = Record_codec.frame p in
           header ^ p ^ trailer)
         scan_payloads)

let firstn n l = List.filteri (fun i _ -> i < n) l

(* [read]'s forward scan yields [delivered], then raises an error
   [expected] accepts. *)
let expect_prefix_then label ~expected delivered (r : reader) =
  let got = ref [] in
  (match
     while true do
       match r.next () with
       | Some p -> got := p :: !got
       | None -> raise Exit
     done
   with
  | exception Apt_error.Error e when expected e -> ()
  | exception Exit -> Alcotest.failf "%s: scanned clean" label
  | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
  | () -> ());
  Alcotest.(check (list string)) (label ^ ": records ahead of the damage")
    delivered (List.rev !got)

(* Every cut at a record boundary is itself a clean file holding the
   records before the cut, which pins the boundaries; the paged writer
   leaves the same bytes. *)
let test_scan_clean () =
  with_temp_dir @@ fun dir ->
  let data = scan_bytes () in
  Alcotest.(check int) "size" 98 (String.length data);
  List.iteri
    (fun k cut ->
      let prefix = String.sub data 0 cut in
      Alcotest.(check (list string))
        (Printf.sprintf "forward to %d" cut)
        (firstn k scan_payloads)
        (drain (Store_mem.open_reader prefix None `Forward));
      Alcotest.(check (list string))
        (Printf.sprintf "backward from %d" cut)
        (List.rev (firstn k scan_payloads))
        (drain (Store_mem.open_reader prefix None `Backward)))
    [ 4; 25; 41; 63; 98 ];
  let f = write_store dir "paged" scan_payloads in
  Alcotest.(check string) "paged bytes" data
    (file_bytes (Option.get f.f_path));
  f.f_dispose ()

(* Every writer emits the signature first, so an empty file, or one of
   three bytes, was torn before it: truncated, not foreign. *)
let test_scan_empty_truncated () =
  with_temp_dir @@ fun dir ->
  refuse_heads dir
    [
      ("empty file", truncated, fun _ -> "");
      ("3-byte head", truncated, fun d -> String.sub d 0 3);
    ]

(* One flipped bit in the signature is a foreign file, not a damaged
   record. *)
let test_scan_damaged_signature () =
  with_temp_dir @@ fun dir ->
  refuse_heads dir
    [
      ("bit 5 of byte 1", version_mismatch, map_byte 1 (fun c -> c lxor 0x20));
      ("bit 0 of byte 2", version_mismatch, map_byte 2 (fun c -> c lxor 0x01));
    ]

(* Torn mid-way through the last record: the three before it scan, then
   the tear is a truncated file, not a corrupt record. *)
let test_scan_truncated () =
  let data = scan_bytes () in
  expect_prefix_then "torn" ~expected:truncated (firstn 3 scan_payloads)
    (Store_mem.open_reader (String.sub data 0 (String.length data - 5)) None
       `Forward)

(* A payload bit flipped in the third record: a forward scan yields the
   two records before it, then names the damaged record's start; a
   backward scan yields the last record, then fails on the same one.
   Under [mem] over the bytes and [paged] over its backing file. *)
let test_recover_corrupt_record () =
  with_temp_dir @@ fun dir ->
  let flip = 41 + 8 + 2 in
  let at_third = function
    | Apt_error.Corrupt_record { offset; _ } -> offset = 41
    | _ -> false
  in
  let damaged = map_byte flip (fun c -> c lxor 0x10) (scan_bytes ()) in
  expect_prefix_then "mem forward" ~expected:at_third (firstn 2 scan_payloads)
    (Store_mem.open_reader damaged None `Forward);
  expect_prefix_then "mem backward" ~expected:corrupt [ "gamma-delta-epsilon" ]
    (Store_mem.open_reader damaged None `Backward);
  let f = write_store dir "paged" scan_payloads in
  overwrite (Option.get f.f_path) damaged;
  expect_prefix_then "paged forward" ~expected:at_third
    (firstn 2 scan_payloads) (f.f_read None `Forward);
  expect_prefix_then "paged backward" ~expected:corrupt
    [ "gamma-delta-epsilon" ] (f.f_read None `Backward);
  f.f_dispose ()

(* The unchecked seed layout, [u32 len | payload | u32 len] with no
   signature, is not a format this build reads: no record of it is
   trusted. *)
let test_seed_layout_refused () =
  with_temp_dir @@ fun dir ->
  refuse_heads dir
    [
      ( "seed layout",
        version_mismatch,
        fun d -> seed_bytes [ String.make (String.length d - 8) 'k' ] );
    ]

let test_corrupt_frames () =
  with_temp_dir @@ fun dir ->
  let f = write_store dir "paged" [ "hello"; "world" ] in
  let path = Option.get f.f_path in
  (* header length of the first record made absurd (magic is 4 bytes,
     then the length's high byte at offset 7) *)
  patch_byte path 7 0x7f;
  Alcotest.(check bool) "corrupt header: forward fails" true
    (fails_to_read f `Forward);
  f.f_dispose ();
  let f = write_store dir "paged" [ "hello"; "world" ] in
  let path = Option.get f.f_path in
  (* trailer length of the last record no longer matches its header *)
  patch_byte path (f.f_size - 4) 0x09;
  Alcotest.(check bool) "corrupt trailer: backward fails" true
    (fails_to_read f `Backward);
  f.f_dispose ();
  let f = write_store dir "paged" [ "hello"; "world" ] in
  let path = Option.get f.f_path in
  (* one payload byte: only the checksum can see this, and it names the
     damaged record's start (the first record opens at the signature's
     end) *)
  patch_byte path 13 (Char.code 'H');
  (match drain (f.f_read None `Forward) with
  | exception Apt_error.Error (Apt_error.Corrupt_record { offset; _ }) ->
      Alcotest.(check int) "corrupt payload: offset of the record"
        Framed.data_start offset
  | exception e ->
      Alcotest.failf "corrupt payload: raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "corrupt payload: read as data");
  f.f_dispose ()

(* The acceptance matrix: flip a bit at EVERY offset of a framed file and
   the read must fail with a typed error (or, for the signature, a
   version mismatch) — in both directions. No flip is silent. *)
let test_bit_flip_matrix () =
  with_temp_dir @@ fun dir ->
  let payloads = [ "hello"; ""; "worlds apart"; String.make 60 'm' ] in
  let fresh () = write_store dir "paged" payloads in
  let probe = fresh () in
  let size = probe.f_size in
  probe.f_dispose ();
  for offset = 0 to size - 1 do
    List.iter
      (fun bit ->
        let f = fresh () in
        let path = Option.get f.f_path in
        let original = Char.code (file_bytes path).[offset] in
        patch_byte path offset (original lxor (1 lsl bit));
        List.iter
          (fun dirn ->
            let detected =
              match drain (f.f_read None dirn) with
              | exception Apt_error.Error _ -> true
              | exception e ->
                  Alcotest.failf "flip %d.%d raised %s" offset bit
                    (Printexc.to_string e)
              | payloads' -> payloads' <> payloads
              (* a flip must never survive as altered data *)
            in
            if not detected then
              Alcotest.failf "flip at offset %d bit %d was silent" offset bit)
          [ `Forward; `Backward ];
        f.f_dispose ())
      [ 0; 7 ]
  done

let test_truncated_file () =
  with_temp_dir @@ fun dir ->
  let f = write_store dir "paged" [ String.make 300 'q'; "tail" ] in
  let path = Option.get f.f_path in
  let keep = String.sub (file_bytes path) 0 (f.f_size - 10) in
  let oc = open_out_bin path in
  output_string oc keep;
  close_out oc;
  expect_refused ~expected:truncated "truncated" (f.f_read None);
  f.f_dispose ()

(* The hostile-medium sweep: a 40-record file under the file store, cut
   short at every offset after close and, separately, with the byte at
   every offset inverted, then scanned in both directions. A scan must
   fail with a typed [Apt_error]; any other exception has escaped the
   store, and a scan that finishes has read damage as data. *)
let test_hostile_medium_sweep () =
  with_temp_dir @@ fun dir ->
  let payloads =
    List.init 40 (fun i -> Printf.sprintf "node-%02d:%s" i (String.make (i mod 9) 'v'))
  in
  let scan (f : file) dirn =
    let r = f.f_read None dirn in
    Fun.protect ~finally:r.close_reader (fun () ->
        let rec go () = match r.next () with Some _ -> go () | None -> () in
        go ())
  in
  let f = write_store dir "paged" payloads in
  let path = Option.get f.f_path in
  let original = file_bytes path in
  for offset = 0 to String.length original - 1 do
    List.iter
      (fun (damage, bytes) ->
        overwrite path bytes;
        List.iter
          (fun dirn ->
            let fail what =
              Alcotest.failf "%s at offset %d, %s scan: %s" damage offset
                (match dirn with `Forward -> "forward" | `Backward -> "backward")
                what
            in
            match scan f dirn with
            | exception Apt_error.Error _ -> ()
            | exception e -> fail (Printexc.to_string e)
            | () -> fail "damage read as data")
          [ `Forward; `Backward ])
      [
        ("truncated", String.sub original 0 offset);
        ( "flipped",
          String.mapi
            (fun i c ->
              if i = offset then Char.chr (Char.code c lxor 0xff) else c)
            original );
      ]
  done;
  f.f_dispose ()

(* ----- write-side faults damage the paged medium ----- *)

let fault_payloads =
  List.init 24 (fun i -> Printf.sprintf "node-%02d:%s" i (String.make (i mod 7) 'v'))

let write_faults dir =
  {
    (config_in dir) with
    faults = Some (Result.get_ok (Apt_store.parse_spec "11:0.3:torn,flip"));
  }

(* The spec's write kinds reach the medium, and every read of the
   damaged file fails typed: exit 40 (corrupt record) or 41 (truncated
   file). *)
let test_write_faults_honoured () =
  with_temp_dir @@ fun dir ->
  let f =
    write_store ~config_of:(fun _ -> write_faults dir) dir "paged" fault_payloads
  in
  List.iter
    (fun dirn ->
      match drain (f.f_read None dirn) with
      | exception Apt_error.Error e
        when List.mem (Apt_error.exit_code e) [ 40; 41 ] ->
          ()
      | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "damaged file read clean")
    [ `Forward; `Backward ];
  f.f_dispose ()

(* The damage is a pure function of the spec and the records written:
   the same RNG, one roll per record, the same flips and tear as the
   dedicated fault-injection store it replaces wrote for this spec and
   these payloads — two bit flips, then a cut at byte 252 of 646. *)
let test_write_damage_pinned () =
  with_temp_dir @@ fun dir ->
  let clean = write_store dir "paged" fault_payloads in
  let expected =
    let b = Bytes.of_string (file_bytes (Option.get clean.f_path)) in
    Alcotest.(check int) "clean size" 646 (Bytes.length b);
    List.iter
      (fun (off, mask) ->
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask)))
      [ (46, 0x04); (107, 0x80) ];
    Bytes.sub_string b 0 252
  in
  clean.f_dispose ();
  let f =
    write_store ~config_of:(fun _ -> write_faults dir) dir "paged" fault_payloads
  in
  Alcotest.(check int) "damaged size" 252 f.f_size;
  Alcotest.(check int) "records written" 24 f.f_records;
  Alcotest.(check string) "damaged bytes" expected
    (file_bytes (Option.get f.f_path));
  f.f_dispose ()

(* ----- stats through the store stack ----- *)

let scan_with_stats start payloads dir =
  let stats = Io_stats.create () in
  let w = start (Some stats) in
  List.iter w.put payloads;
  let f = w.close () in
  ignore (drain (f.f_read (Some stats) dir));
  f.f_dispose ();
  (stats, f)

let page_count (f : file) = (f.f_size + 31) / 32

let test_paged_stats () =
  with_temp_dir @@ fun dir ->
  let payloads = List.init 64 (fun i -> String.make (20 + (i mod 7)) 'p') in
  let stats, f =
    scan_with_stats (store ~config:(tiny_pages dir) "paged") payloads `Backward
  in
  let get field = Io_stats.get (field stats) in
  Alcotest.(check int) "a backward scan reads exactly the file" f.f_size
    (get (fun s -> s.Io_stats.bytes_read));
  Alcotest.(check int) "writes the file once" f.f_size
    (get (fun s -> s.Io_stats.bytes_written));
  Alcotest.(check int) "pages written = the file's pages" (page_count f)
    (get (fun s -> s.Io_stats.pages_written));
  Alcotest.(check int) "pages read = the file's pages" (page_count f)
    (get (fun s -> s.Io_stats.pages_read));
  Alcotest.(check bool) "seeks counted" true (get (fun s -> s.Io_stats.seeks) > 0)

(* Once a reader has returned its first record, every fetch reads two
   whole pages past the request's page, so a backward scan pays at most
   one seek per three pages, plus the jump to the end of the file and
   the rest of the first record — with short records and with records
   several pages wide. *)
let test_backward_scan_seeks () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (label, payloads) ->
      let stats, f =
        scan_with_stats (store ~config:(tiny_pages dir) "paged") payloads
          `Backward
      in
      let pages = page_count f and seeks = Io_stats.get stats.Io_stats.seeks in
      let bound = ((pages + 2) / 3) + 2 in
      if pages < 30 then Alcotest.failf "%s: only %d pages" label pages;
      if seeks > bound then
        Alcotest.failf "%s: %d seeks over %d pages, more than %d" label seeks
          pages bound)
    [
      ("short records", List.init 64 (fun i -> String.make (20 + (i mod 7)) 'p'));
      ( "wide records",
        List.init 24 (fun i -> String.make (if i mod 3 = 0 then 150 else 9) 'w')
      );
    ]

(* A full scan through the paged store moves the file exactly once: no
   byte is fetched twice, none is skipped — with the default pages and
   with 32-byte pages, where most records span several pages. *)
let test_full_scan_reads_file_size () =
  with_temp_dir @@ fun dir ->
  let payloads =
    List.init 120 (fun i -> Printf.sprintf "rec-%d-%s" i (String.make (i mod 50) 'z'))
  in
  List.iter
    (fun (config, dirn) ->
      let stats, f = scan_with_stats (store ~config "paged") payloads dirn in
      Alcotest.(check int)
        (Printf.sprintf "%s: bytes read = f_size"
           (match dirn with `Forward -> "forward" | `Backward -> "backward"))
        f.f_size
        (Io_stats.get stats.Io_stats.bytes_read))
    [
      (config_in dir, `Forward);
      (config_in dir, `Backward);
      (tiny_pages dir, `Forward);
      (tiny_pages dir, `Backward);
    ]

(* The same guarantee over random payloads and page sizes, either
   direction. *)
let prop_full_scan_exact =
  QCheck.Test.make ~name:"full scan reads f_size under any page size"
    ~count:60
    (QCheck.make QCheck.Gen.(pair payloads_gen (int_range 8 96)))
    (fun (payloads, page_size) ->
      with_temp_dir @@ fun dir ->
      let config = { (config_in dir) with page_size } in
      List.iter
        (fun dirn ->
          let stats, f = scan_with_stats (store ~config "paged") payloads dirn in
          let read = Io_stats.get stats.Io_stats.bytes_read in
          if read <> f.f_size then
            QCheck.Test.fail_reportf "%s: read %d of %d bytes"
              (match dirn with `Forward -> "forward" | `Backward -> "backward")
              read f.f_size)
        [ `Forward; `Backward ];
      true)

(* A reader whose opening signature read runs out of retries closes
   its descriptor: 50 failed opens leave the process's open descriptors
   as they were. *)
let test_failed_open_closes () =
  if Sys.file_exists "/proc/self/fd" then
    with_temp_dir @@ fun dir ->
    let config =
      {
        (config_in dir) with
        faults = Some (Result.get_ok (Apt_store.parse_spec "7:1.0:transient"));
      }
    in
    let f = write_store ~config_of:(fun _ -> config) dir "paged" [ "a"; "b" ] in
    let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let before = open_fds () in
    for _ = 1 to 50 do
      match f.f_read None `Forward with
      | exception Apt_error.Error (Apt_error.Exhausted_retries _) -> ()
      | _ -> Alcotest.fail "a read under 7:1.0:transient opened"
    done;
    Alcotest.(check int) "open descriptors" before (open_fds ());
    f.f_dispose ()

(* Every name but the two stores' is refused with the one message the
   CLI, job files and bench print, [zip] among them. *)
let test_unknown_store_rejected () =
  List.iter
    (fun name ->
      match Aptfile.backend_of_store_name name with
      | exception Failure msg ->
          Alcotest.(check string)
            (name ^ ": message")
            (Printf.sprintf "unknown APT store %S (registered: mem, paged)" name)
            msg
      | _ -> Alcotest.failf "%s: accepted" name)
    [ "no-such-store"; "zip" ]

(* ----- the record codec ----- *)

(* Each hostile payload, in a correct APT1 frame under both stores, is
   refused by [Aptfile.read_next] as a corrupt record (exit 40), read
   forward and backward. *)
let test_hostile_payloads () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun name ->
      List.iter
        (fun (label, payload) ->
          let w = store ~config:(config_in dir) name None in
          w.put payload;
          let f = w.close () in
          List.iter
            (fun dirn ->
              let r =
                match dirn with
                | `Forward -> Aptfile.read_forward f
                | `Backward -> Aptfile.read_backward f
              in
              Fun.protect
                ~finally:(fun () -> Aptfile.close_reader r)
                (fun () ->
                  match Aptfile.read_next r with
                  | exception Apt_error.Error (Apt_error.Corrupt_record _ as e)
                    ->
                      Alcotest.(check int)
                        (name ^ ", " ^ label ^ ": exit code")
                        40 (Apt_error.exit_code e)
                  | exception e ->
                      Alcotest.failf "%s, %s: raised %s" name label
                        (Printexc.to_string e)
                  | _ -> Alcotest.failf "%s, %s: decoded" name label))
            [ `Forward; `Backward ];
          f.f_dispose ())
        Fixtures.hostile_node_payloads)
    store_names

(* The distinct node payloads of a random tree of the grammar
   [Ag_gen] draws from [seed]: each node as the linearizer writes it,
   each rule application of the oracle's evaluation as a record of its
   values, and, since [Ag_gen]'s rules compute integers, one record that
   nests the first of those values in every other value tag. *)
let codec_payloads seed =
  let st = Random.State.make [| seed |] in
  let rng bound = Random.State.int st bound in
  let source = Lg_corpus.Ag_gen.generate rng in
  let diag = Diag.create () in
  match Linguist.Ag_parse.parse ~file:"<codec>" ~diag source with
  | None -> []
  | Some ast -> (
      match Linguist.Check.check ~diag ast with
      | None -> []
      | Some ir ->
          let tree = Fixtures.random_tree ir ~rng ~size:(10 + rng 30) in
          let nodes = ref [] in
          Tree.iter_prefix_ltr
            (fun t -> nodes := Build.default_node t :: !nodes)
            tree;
          let applications =
            match Linguist.Demand.evaluate_traced ir tree with
            | _, applications -> applications
            | exception Linguist.Demand.Circular _ -> []
          in
          List.iter
            (fun (rule, values) ->
              nodes :=
                Node.interior ~prod:rule ~sym:0 ~attrs:(Array.of_list values)
                :: !nodes)
            applications;
          let values =
            List.filteri (fun i _ -> i < 8) (List.concat_map snd applications)
          in
          let every_tag =
            Value.
              [|
                Bottom; Bool true; Name seed; Str (String.sub source 0 12);
                List values; Set (List.sort_uniq compare values);
                Pf (List.map (fun v -> (v, List [ v ])) (List.sort_uniq compare values));
                Term ("f", values);
              |]
          in
          nodes := Node.interior ~prod:0 ~sym:0 ~attrs:every_tag :: !nodes;
          List.sort_uniq String.compare
            (List.map
               (fun node ->
                 let buf = Buffer.create 64 in
                 Node.encode buf node;
                 Buffer.contents buf)
               !nodes))

(* The hostile-input invariant of the record codec: every proper prefix
   and every one-byte mutation of a valid payload either decodes or is
   refused as a corrupt record; no other exception escapes. *)
let prop_codec_mutations =
  QCheck.Test.make ~name:"record codec: prefixes and byte mutations"
    ~count:40 (QCheck.make QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let decodes_or_corrupt what bytes =
        match Node.decode bytes with
        | _ | (exception Apt_error.Error (Apt_error.Corrupt_record _)) -> ()
        | exception e ->
            QCheck.Test.fail_reportf "seed %d, %s of %S: raised %s" seed what
              bytes (Printexc.to_string e)
      in
      List.iter
        (fun payload ->
          for cut = 0 to String.length payload - 1 do
            decodes_or_corrupt "prefix" (String.sub payload 0 cut)
          done;
          String.iteri
            (fun i c ->
              for v = 0 to 255 do
                if v <> Char.code c then
                  decodes_or_corrupt
                    (Printf.sprintf "byte %d := %d" i v)
                    (String.mapi (fun j c -> if j = i then Char.chr v else c) payload)
              done)
            payload)
        (codec_payloads seed);
      true)

(* ----- mem's chunks ----- *)

(* [mem] writes a file into chunks of 4, 8, 16, 32 and then 64 KiB. A
   payload wider than the largest chunk, and, as the first record grows
   a byte at a time, a frame and payload split at every byte around the
   first boundary (4096) read back in both directions exactly as [paged]
   reads them, and a full scan still reads the file once. *)
let test_mem_chunk_boundaries () =
  with_temp_dir @@ fun dir ->
  let wide = String.init 150_000 (fun i -> Char.chr (i land 0xff)) in
  for shift = 0 to 23 do
    (* the second record starts at byte 4080 + shift *)
    let payloads = [ String.make (4060 + shift) 'a'; "header"; wide; "z" ] in
    let scan name dirn =
      let f = write_store dir name payloads in
      let stats = Io_stats.create () in
      let records = drain (f.f_read (Some stats) dirn) in
      f.f_dispose ();
      (f.f_size, records, Io_stats.get stats.Io_stats.bytes_read)
    in
    List.iter
      (fun (dirn, label) ->
        let label = Printf.sprintf "shift %d, %s" shift label in
        let size, records, read = scan "mem" dirn in
        let p_size, p_records, p_read = scan "paged" dirn in
        Alcotest.(check int) (label ^ ": size = paged's") p_size size;
        Alcotest.(check (list string))
          (label ^ ": records = paged's")
          p_records records;
        Alcotest.(check (list string))
          (label ^ ": records as written")
          (if dirn = `Forward then payloads else List.rev payloads)
          records;
        Alcotest.(check int) (label ^ ": bytes read = paged's") p_read read;
        Alcotest.(check int) (label ^ ": bytes read = size") size read)
      [ (`Forward, "forward"); (`Backward, "backward") ]
  done

let () =
  Alcotest.run "store"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "all registered stores" `Quick
            test_roundtrip_all_stores;
          Alcotest.test_case "empty and single-record files" `Quick
            test_empty_and_single;
          Alcotest.test_case "tiny pages, records wider than the pool" `Quick
            test_tiny_pages;
          Alcotest.test_case "mem chunk boundaries match paged" `Quick
            test_mem_chunk_boundaries;
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
        ] );
      ( "format",
        [
          Alcotest.test_case "framed layout pinned byte-for-byte" `Quick
            test_framed_format_pin;
          Alcotest.test_case "foreign signature is refused" `Quick
            test_foreign_signature_refused;
        ] );
      ( "scan",
        [
          Alcotest.test_case "clean framed file" `Quick test_scan_clean;
          Alcotest.test_case "empty file is truncated" `Quick
            test_scan_empty_truncated;
          Alcotest.test_case "damaged signature" `Quick
            test_scan_damaged_signature;
          Alcotest.test_case "truncated file" `Quick test_scan_truncated;
        ] );
      ( "recover",
        [
          Alcotest.test_case "corrupt record" `Quick
            test_recover_corrupt_record;
          Alcotest.test_case "seed layout is refused" `Quick
            test_seed_layout_refused;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "corrupt frames" `Quick test_corrupt_frames;
          Alcotest.test_case "every single-bit flip is detected" `Quick
            test_bit_flip_matrix;
          Alcotest.test_case "truncated backing file" `Quick test_truncated_file;
          Alcotest.test_case "hostile medium: every cut and byte flip" `Quick
            test_hostile_medium_sweep;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "write faults damage paged" `Quick
            test_write_faults_honoured;
          Alcotest.test_case "write damage pinned byte-for-byte" `Quick
            test_write_damage_pinned;
          Alcotest.test_case "a failed open closes its descriptor" `Quick
            test_failed_open_closes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "paged window accounting" `Quick test_paged_stats;
          Alcotest.test_case "backward scan seeks once per three pages" `Quick
            test_backward_scan_seeks;
          Alcotest.test_case "full scan reads the file once" `Quick
            test_full_scan_reads_file_size;
          QCheck_alcotest.to_alcotest prop_full_scan_exact;
        ] );
      ( "registry",
        [
          Alcotest.test_case "unknown names rejected" `Quick
            test_unknown_store_rejected;
        ] );
      ( "codec",
        [
          Alcotest.test_case "hostile payloads through both stores" `Quick
            test_hostile_payloads;
          QCheck_alcotest.to_alcotest prop_codec_mutations;
        ] );
    ]
