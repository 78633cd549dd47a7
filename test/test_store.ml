(* Tests for the pluggable APT store subsystem: every registered store
   must stream records back in both directions, the byte-compatible
   stores must pin the framed on-medium format exactly and refuse any
   other, corrupt or truncated backing files must fail loudly, write-side
   fault specs must damage the medium, and the registry must accept
   out-of-tree stores written as an [Apt_store.t] record. *)
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

(* A config that forces multi-page records and pool pressure. *)
let tiny_pages dir =
  { (config_in dir) with page_size = 32; pool_pages = 3; prefetch_pages = 2 }

let drain (r : reader) =
  let rec go acc =
    match r.next () with Some p -> go (p :: acc) | None -> List.rev acc
  in
  let all = go [] in
  r.close_reader ();
  all

let store_roundtrip name (store : Apt_store.t) payloads =
  let w = store.start None in
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
    (fun name -> k name (Store_registry.find ~config:(config_in dir) name))
    (Store_registry.names ())

let test_roundtrip_all_stores () =
  with_temp_dir @@ fun dir ->
  every_store dir (fun name store -> store_roundtrip name store sample_payloads)

let test_empty_and_single () =
  with_temp_dir @@ fun dir ->
  every_store dir (fun name store ->
      store_roundtrip (name ^ " empty") store [];
      store_roundtrip (name ^ " single") store [ "only" ])

(* Records wider than the whole pool still round-trip (they bypass the
   pool's interior pages), and so do tiny pages generally. *)
let test_tiny_pages () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun name ->
      store_roundtrip
        (name ^ " tiny pages")
        (Store_registry.find ~config:(tiny_pages dir) name)
        [ String.make 500 'a'; "b"; ""; String.make 77 'c'; "dd" ])
    [ "paged"; "zip" ]

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
          let store = Store_registry.find ~config:(tiny_pages dir) name in
          let w = store.start None in
          List.iter w.put payloads;
          let f = w.close () in
          let fwd = drain (f.f_read None `Forward) in
          let bwd = drain (f.f_read None `Backward) in
          f.f_dispose ();
          if fwd <> payloads then
            QCheck.Test.fail_reportf "%s: forward mismatch" name;
          if bwd <> List.rev payloads then
            QCheck.Test.fail_reportf "%s: backward mismatch" name)
        (Store_registry.names ());
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
      let store = Store_registry.find ~config name in
      let w = store.start None in
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
  let store = Store_registry.find ~config:(config_of dir) name in
  let w = store.start None in
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

let expect_version_mismatch label read =
  List.iter
    (fun dirn ->
      match drain (read dirn) with
      | exception Apt_error.Error (Apt_error.Version_mismatch _) -> ()
      | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: read as data" label)
    [ `Forward; `Backward ]

(* Two zeroed signature bytes, and a file in the seed layout, under
   every reader: [mem]'s over the bytes themselves, [paged]'s and
   [zip]'s over their backing file rewritten in place (at its written
   size, which the reader keeps). *)
let test_foreign_signature_refused () =
  with_temp_dir @@ fun dir ->
  let zero_signature data =
    String.mapi (fun i c -> if i < 2 then '\x00' else c) data
  in
  let framed = framed_bytes [ ("AB", 0x30694c07); ("xyz", 0xeb8eba67) ] in
  List.iter
    (fun (label, data) ->
      expect_version_mismatch ("mem, " ^ label) (Store_mem.open_reader data None))
    [
      ("zeroed signature", zero_signature framed);
      ("seed layout", "\x05\x00\x00\x00alpha\x05\x00\x00\x00");
    ];
  List.iter
    (fun name ->
      List.iter
        (fun (label, damage) ->
          let f = write_store dir name [ "alpha"; "beta" ] in
          let path = Option.get f.f_path in
          overwrite path (damage (file_bytes path));
          expect_version_mismatch (name ^ ", " ^ label) (f.f_read None);
          f.f_dispose ())
        [
          ("zeroed signature", zero_signature);
          ( "seed layout",
            fun data -> seed_bytes [ String.make (String.length data - 8) 'k' ] );
        ])
    [ "paged"; "zip" ]

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
  (* one payload byte: only the checksum can see this *)
  patch_byte path 13 (Char.code 'H');
  Alcotest.(check bool) "corrupt payload: checksum catches it" true
    (fails_to_read f `Forward);
  f.f_dispose ()

(* The acceptance matrix: flip a bit at EVERY offset of a framed file and
   the read must fail with a typed error (or, for the signature, a
   version mismatch) — in both directions. No flip is silent. *)
let test_bit_flip_matrix () =
  with_temp_dir @@ fun dir ->
  let payloads = [ "hello"; ""; "worlds apart"; String.make 60 'm' ] in
  List.iter
    (fun name ->
      let fresh () = write_store dir name payloads in
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
                      Alcotest.failf "%s: flip %d.%d raised %s" name offset
                        bit (Printexc.to_string e)
                  | payloads' -> payloads' <> payloads
                  (* a flip must never survive as altered data *)
                in
                if not detected then
                  Alcotest.failf "%s: flip at offset %d bit %d was silent"
                    name offset bit)
              [ `Forward; `Backward ];
            f.f_dispose ())
          [ 0; 7 ]
      done)
    [ "paged"; "zip" ]

let test_truncated_file () =
  with_temp_dir @@ fun dir ->
  let f = write_store dir "paged" [ String.make 300 'q'; "tail" ] in
  let path = Option.get f.f_path in
  let keep = String.sub (file_bytes path) 0 (f.f_size - 10) in
  let oc = open_out_bin path in
  output_string oc keep;
  close_out oc;
  Alcotest.(check bool) "truncated: forward fails" true (fails_to_read f `Forward);
  Alcotest.(check bool) "truncated: backward fails" true
    (fails_to_read f `Backward);
  f.f_dispose ()

let test_corrupt_zip_block () =
  with_temp_dir @@ fun dir ->
  let f = write_store dir "zip" [ "hello"; "help!" ] in
  let path = Option.get f.f_path in
  (* a byte inside the compressed block payload: the base store's
     checksum catches it before the block decoder even runs *)
  patch_byte path 14 0x7f;
  Alcotest.(check bool) "corrupt block: read fails" true
    (fails_to_read f `Forward);
  f.f_dispose ();
  (* the block decoder's own checks: hostile block payloads, each in a
     correct APT1 frame with a valid checksum so the base store hands
     them up. The file keeps its written size (the reader's), so each
     payload is padded to the original block's length *)
  List.iter
    (fun (label, block, reason) ->
      let f = write_store dir "zip" [ "hello"; "help!" ] in
      let path = Option.get f.f_path in
      let width = f.f_size - Framed.data_start - Framed.overhead in
      let block = block ^ String.make (width - String.length block) '\x00' in
      let header, trailer = Record_codec.frame block in
      overwrite path (Framed.magic ^ header ^ block ^ trailer);
      List.iter
        (fun dirn ->
          match drain (f.f_read None dirn) with
          | exception Apt_error.Error (Apt_error.Corrupt_record { detail; _ })
            when Fixtures.contains_substring ~needle:reason detail ->
              ()
          | exception e ->
              Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
          | _ -> Alcotest.failf "%s: block decoded" label)
        [ `Forward; `Backward ];
      f.f_dispose ())
    [
      (* the 9-byte varint ff..ff 7f decodes to -1 *)
      ("count -1", "\xff\xff\xff\xff\xff\xff\xff\xff\x7f", "decodes negative");
      ( "10-byte count",
        "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f",
        "longer than 9 bytes" );
      (* more entries than the 12-byte block has bytes *)
      ("count 100", "\x64", "claims 100 entries");
      (* one entry whose suffix runs past the block's end *)
      ("suffix past the end", "\x01\x00\x7f", "refers outside its bounds");
    ]

(* The hostile-medium sweep: a 40-record file under each file store, cut
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
  List.iter
    (fun name ->
      let f = write_store dir name payloads in
      let path = Option.get f.f_path in
      let original = file_bytes path in
      for offset = 0 to String.length original - 1 do
        List.iter
          (fun (damage, bytes) ->
            overwrite path bytes;
            List.iter
              (fun dirn ->
                let fail what =
                  Alcotest.failf "%s, %s at offset %d, %s scan: %s" name damage
                    offset
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
      f.f_dispose ())
    [ "paged"; "zip" ]

(* ----- crash-safe writes: temp file + atomic rename on close ----- *)

let test_atomic_writes () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun name ->
      let store = Store_registry.find ~config:(config_in dir) name in
      let w = store.start None in
      w.put (String.make 9000 'a');
      w.put "partial";
      (* mid-write: some backing file in the directory is still a ".part";
         no completed store file exists yet *)
      let entries = Array.to_list (Sys.readdir dir) in
      Alcotest.(check bool)
        (name ^ ": stream lives in a .part file")
        true
        (List.exists (fun e -> Filename.check_suffix e ".part") entries);
      let f = w.close () in
      let path = Option.get f.f_path in
      Alcotest.(check bool)
        (name ^ ": committed file exists")
        true (Sys.file_exists path);
      Alcotest.(check bool)
        (name ^ ": no .part left after close")
        false (Sys.file_exists (path ^ ".part"));
      Alcotest.(check (list string))
        (name ^ ": committed records read back")
        [ String.make 9000 'a'; "partial" ]
        (drain (f.f_read None `Forward));
      f.f_dispose ())
    [ "paged"; "zip" ]

(* ----- write-side faults damage the medium under paged and zip ----- *)

let fault_payloads =
  List.init 24 (fun i -> Printf.sprintf "node-%02d:%s" i (String.make (i mod 7) 'v'))

let write_faults dir =
  {
    (config_in dir) with
    faults = Some (Result.get_ok (Apt_store.parse_spec "11:0.3:torn,flip"));
  }

(* The spec's write kinds reach the medium whichever file store wrote
   it, and every read of the damaged file fails typed: exit 40 (corrupt
   record) or 41 (truncated file). [zip] rolls once per block, so small
   blocks give it several chances. *)
let test_write_faults_honoured () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (name, config) ->
      let f = write_store ~config_of:(fun _ -> config) dir name fault_payloads in
      List.iter
        (fun dirn ->
          match drain (f.f_read None dirn) with
          | exception Apt_error.Error e
            when List.mem (Apt_error.exit_code e) [ 40; 41 ] ->
              ()
          | exception e ->
              Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
          | _ -> Alcotest.failf "%s: damaged file read clean" name)
        [ `Forward; `Backward ];
      f.f_dispose ())
    [ ("paged", write_faults dir); ("zip", { (write_faults dir) with zip_block = 4 }) ]

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

let scan_with_stats store payloads dir =
  let stats = Io_stats.create () in
  let w = store.start (Some stats) in
  List.iter w.put payloads;
  let f = w.close () in
  ignore (drain (f.f_read (Some stats) dir));
  f.f_dispose ();
  (stats, f)

let test_paged_stats () =
  with_temp_dir @@ fun dir ->
  let payloads = List.init 64 (fun i -> String.make (20 + (i mod 7)) 'p') in
  let scan config =
    scan_with_stats (Store_registry.find ~config "paged") payloads `Backward
  in
  let stats, f = scan (tiny_pages dir) in
  Alcotest.(check int) "read-ahead scan reads exactly the file" f.f_size
    (Io_stats.get stats.Io_stats.bytes_read);
  Alcotest.(check int) "writes the file once" f.f_size
    (Io_stats.get stats.Io_stats.bytes_written);
  Alcotest.(check bool) "pages were written" true (Io_stats.get stats.Io_stats.pages_written > 0);
  Alcotest.(check bool) "pool took hits" true (Io_stats.get stats.Io_stats.pool_hits > 0);
  Alcotest.(check bool) "read-ahead pages got used" true
    (Io_stats.get stats.Io_stats.prefetch_hits > 0);
  (* the same scan with read-ahead switched off by config *)
  let plain, f = scan { (tiny_pages dir) with prefetch_pages = 0 } in
  Alcotest.(check int) "plain scan reads exactly the file" f.f_size
    (Io_stats.get plain.Io_stats.bytes_read);
  Alcotest.(check bool) "seeks counted" true (Io_stats.get plain.Io_stats.seeks > 0);
  Alcotest.(check bool) "read-ahead costs fewer seeks" true
    (Io_stats.get stats.Io_stats.seeks < Io_stats.get plain.Io_stats.seeks)

(* A full scan through either file store moves the file exactly once:
   no byte is fetched twice, none is skipped — with the default pages,
   with 32-byte pages, where most records span several pages, and with
   32-byte pages in a 3-page pool, where read-ahead must not evict a
   page the scan still needs. *)
let test_full_scan_reads_file_size () =
  with_temp_dir @@ fun dir ->
  let payloads =
    List.init 120 (fun i -> Printf.sprintf "rec-%d-%s" i (String.make (i mod 50) 'z'))
  in
  List.iter
    (fun name ->
      List.iter
        (fun (config, dirn) ->
          let stats, f =
            scan_with_stats (Store_registry.find ~config name) payloads dirn
          in
          Alcotest.(check int)
            (Printf.sprintf "%s %s: bytes read = f_size" name
               (match dirn with `Forward -> "forward" | `Backward -> "backward"))
            f.f_size
            (Io_stats.get stats.Io_stats.bytes_read))
        [
          (config_in dir, `Forward);
          (config_in dir, `Backward);
          ({ (config_in dir) with page_size = 32 }, `Forward);
          ({ (config_in dir) with page_size = 32 }, `Backward);
          (tiny_pages dir, `Forward);
          (tiny_pages dir, `Backward);
        ])
    [ "paged"; "zip" ]

(* The same guarantee over random payloads and pool shapes: any page
   size, pool size and read-ahead window, either direction. *)
let prop_full_scan_exact =
  QCheck.Test.make ~name:"full scan reads f_size under any pool shape"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         tup2 payloads_gen
           (triple (int_range 8 96) (int_range 2 6) (int_range 0 4))))
    (fun (payloads, (page_size, pool_pages, prefetch_pages)) ->
      with_temp_dir @@ fun dir ->
      let config =
        { (config_in dir) with page_size; pool_pages; prefetch_pages }
      in
      List.iter
        (fun name ->
          List.iter
            (fun dirn ->
              let stats, f =
                scan_with_stats (Store_registry.find ~config name) payloads dirn
              in
              let read = Io_stats.get stats.Io_stats.bytes_read in
              if read <> f.f_size then
                QCheck.Test.fail_reportf "%s %s: read %d of %d bytes" name
                  (match dirn with `Forward -> "forward" | `Backward -> "backward")
                  read f.f_size)
            [ `Forward; `Backward ])
        [ "paged"; "zip" ];
      true)

let test_zip_ratio () =
  with_temp_dir @@ fun dir ->
  let payloads = List.init 200 (fun i -> Printf.sprintf "record-%06d-suffix" i) in
  let stats, _ =
    scan_with_stats
      (Store_registry.find ~config:(config_in dir) "zip")
      payloads `Forward
  in
  match Io_stats.compression_ratio stats with
  | None -> Alcotest.fail "no compression ratio reported"
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "front-coding beats framing (%.2fx)" r)
        true (r > 1.0)

(* ----- an out-of-tree store through the registry ----- *)

(* A deliberately weird layout — records kept reversed in memory — to
   prove the record type, not the layout, is the contract. *)
let reverse_mem : Apt_store.t =
  {
    s_name = "test-reverse";
    start =
      (fun _stats ->
        let kept = ref [] in
        {
          put = (fun p -> kept := p :: !kept);
          close =
            (fun () ->
              let kept = !kept in
              {
                f_store = "test-reverse";
                f_size = List.fold_left (fun a p -> a + String.length p) 0 kept;
                f_records = List.length kept;
                f_path = None;
                f_read =
                  (fun _stats dir ->
                    let left =
                      ref (match dir with `Forward -> List.rev kept | `Backward -> kept)
                    in
                    {
                      next =
                        (fun () ->
                          match !left with
                          | [] -> None
                          | p :: rest ->
                              left := rest;
                              Some p);
                      close_reader = ignore;
                    });
                f_dispose = ignore;
              });
          abort = ignore;
        });
  }

let test_registered_custom_store () =
  Store_registry.register ~name:"test-reverse"
    ~description:"unit-test store written as an Apt_store.t record"
    (fun _config -> reverse_mem);
  Alcotest.(check bool) "listed" true
    (List.mem "test-reverse" (Store_registry.names ()));
  with_temp_dir @@ fun dir ->
  store_roundtrip "custom record" (Store_registry.find "test-reverse")
    sample_payloads;
  (* and it is reachable from the façade, like any --apt-store value *)
  let backend =
    Aptfile.backend_of_store_name ~config:(config_in dir) "test-reverse"
  in
  let nodes =
    [
      Node.leaf ~sym:1 ~attrs:[| Value.Int 7 |];
      Node.interior ~prod:2 ~sym:0 ~attrs:[| Value.Str "s" |];
    ]
  in
  let file = Aptfile.of_list backend nodes in
  Alcotest.(check bool) "façade roundtrip" true
    (List.for_all2 Node.equal nodes (Aptfile.to_list file));
  Aptfile.dispose file

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_unknown_store_rejected () =
  match Aptfile.backend_of_store_name "no-such-store" with
  | exception Failure msg ->
      Alcotest.(check bool) "error lists the registry" true
        (contains ~sub:"paged" msg)
  | _ -> Alcotest.fail "unknown store accepted"

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
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
        ] );
      ( "format",
        [
          Alcotest.test_case "framed layout pinned byte-for-byte" `Quick
            test_framed_format_pin;
          Alcotest.test_case "foreign signature is refused" `Quick
            test_foreign_signature_refused;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "corrupt frames" `Quick test_corrupt_frames;
          Alcotest.test_case "every single-bit flip is detected" `Quick
            test_bit_flip_matrix;
          Alcotest.test_case "truncated backing file" `Quick test_truncated_file;
          Alcotest.test_case "corrupt compressed block" `Quick
            test_corrupt_zip_block;
          Alcotest.test_case "hostile medium: every cut and byte flip" `Quick
            test_hostile_medium_sweep;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "atomic rename on close" `Quick test_atomic_writes;
          Alcotest.test_case "write faults damage paged and zip" `Quick
            test_write_faults_honoured;
          Alcotest.test_case "write damage pinned byte-for-byte" `Quick
            test_write_damage_pinned;
        ] );
      ( "stats",
        [
          Alcotest.test_case "paged pool accounting" `Quick test_paged_stats;
          Alcotest.test_case "full scan reads the file once" `Quick
            test_full_scan_reads_file_size;
          QCheck_alcotest.to_alcotest prop_full_scan_exact;
          Alcotest.test_case "compression ratio" `Quick test_zip_ratio;
        ] );
      ( "registry",
        [
          Alcotest.test_case "custom store record" `Quick
            test_registered_custom_store;
          Alcotest.test_case "unknown names rejected" `Quick
            test_unknown_store_rejected;
        ] );
    ]
