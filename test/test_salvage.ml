(* Tests for the offline salvage engine behind [apt-fsck]: scanning
   clean, corrupted and truncated files; refusing files without the
   APT1 signature; recovering the longest valid prefix; and salvaging a
   file damaged by the deterministic fault injector. *)
open Lg_apt
open Apt_store

let with_temp_dir f =
  let dir = Filename.temp_file "salvagetest" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

(* Serialize payloads exactly as a writer would. *)
let file_bytes payloads =
  let b = Buffer.create 256 in
  Buffer.add_string b Framed.magic;
  List.iter
    (fun p ->
      let header, trailer = Record_codec.frame p in
      Buffer.add_string b header;
      Buffer.add_string b p;
      Buffer.add_string b trailer)
    payloads;
  Buffer.contents b

let patch data off f =
  let b = Bytes.of_string data in
  Bytes.set b off (Char.chr (f (Char.code (Bytes.get b off))));
  Bytes.to_string b

(* Decode every record of a file independently of [Salvage] — the check
   that recovery wrote what it claims. *)
let read_payloads path =
  let data = read_file path in
  let src =
    {
      Record_codec.src_path = Some path;
      src_size = String.length data;
      src_read = (fun ~pos ~len ~want:_ -> String.sub data pos len);
    }
  in
  Record_codec.sniff ~path:(Some path) data;
  let rec go pos acc =
    match Record_codec.next_forward src ~pos with
    | None -> List.rev acc
    | Some (p, next) -> go next (p :: acc)
  in
  go Framed.data_start []

let payloads = [ "alpha"; ""; "burrow"; "gamma-delta-epsilon" ]

let offsets_of r = List.map (fun i -> i.Salvage.r_offset) r.Salvage.sv_records
let lens_of r = List.map (fun i -> i.Salvage.r_len) r.Salvage.sv_records

let firstn n l = List.filteri (fun i _ -> i < n) l

let test_scan_clean () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "clean.apt" in
  write_file path (file_bytes payloads);
  let r = Salvage.scan path in
  Alcotest.(check bool) "clean" true (Salvage.is_clean r);
  Alcotest.(check int) "all bytes valid" r.Salvage.sv_size r.Salvage.sv_valid_bytes;
  (* record offsets accumulate: data_start, then +overhead+len each *)
  Alcotest.(check (list int)) "offsets" [ 4; 25; 41; 63 ] (offsets_of r);
  Alcotest.(check (list int)) "payload lengths" [ 5; 0; 6; 19 ] (lens_of r)

(* Every writer emits the signature first, so an empty file is one torn
   before it: truncated, with nothing to recover. *)
let test_scan_empty_truncated () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "empty.apt" in
  write_file path "";
  let r = Salvage.scan path in
  (match r.Salvage.sv_issue with
  | Some (Apt_error.Truncated_file _) -> ()
  | Some e -> Alcotest.failf "expected Truncated_file, got %s" (Apt_error.to_string e)
  | None -> Alcotest.fail "empty file scanned clean");
  Alcotest.(check int) "no records" 0 (List.length r.Salvage.sv_records);
  let out = Filename.concat dir "recovered.apt" in
  Alcotest.(check (option int)) "nothing recovered" None (Salvage.recover r ~out);
  Alcotest.(check bool) "no file written" false (Sys.file_exists out)

let test_scan_corrupt_and_recover () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "corrupt.apt" in
  let good = file_bytes payloads in
  (* flip a payload bit inside the THIRD record (starts at offset 41) *)
  write_file path (patch good (41 + 8 + 2) (fun c -> c lxor 0x10));
  let r = Salvage.scan path in
  Alcotest.(check bool) "dirty" false (Salvage.is_clean r);
  (match r.Salvage.sv_issue with
  | Some (Apt_error.Corrupt_record { offset; _ }) ->
      Alcotest.(check int) "failure offset names the record" 41 offset
  | other ->
      Alcotest.failf "expected Corrupt_record, got %s"
        (match other with
        | Some e -> Apt_error.to_string e
        | None -> "no issue"))
  ;
  Alcotest.(check int) "valid prefix ends at the bad record" 41
    r.Salvage.sv_valid_bytes;
  let out = Filename.concat dir "recovered.apt" in
  Alcotest.(check (option int)) "records recovered" (Some 2)
    (Salvage.recover r ~out);
  let r2 = Salvage.scan out in
  Alcotest.(check bool) "recovered file is clean" true (Salvage.is_clean r2);
  Alcotest.(check (list string)) "recovered prefix" (firstn 2 payloads)
    (read_payloads out)

let test_scan_truncated () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "torn.apt" in
  let good = file_bytes payloads in
  (* tear the file mid-way through the last record *)
  write_file path (String.sub good 0 (String.length good - 5));
  let r = Salvage.scan path in
  (match r.Salvage.sv_issue with
  | Some (Apt_error.Truncated_file _) -> ()
  | Some e -> Alcotest.failf "expected Truncated_file, got %s" (Apt_error.to_string e)
  | None -> Alcotest.fail "torn file scanned clean");
  Alcotest.(check int) "three records survive" 3
    (List.length r.Salvage.sv_records);
  let out = Filename.concat dir "recovered.apt" in
  Alcotest.(check (option int)) "records recovered" (Some 3)
    (Salvage.recover r ~out);
  Alcotest.(check (list string)) "recovered prefix" (firstn 3 payloads)
    (read_payloads out)

(* A file whose head is not APT1 is refused as a whole: no record of it
   is trusted, so the scan reports no valid byte and recovery writes no
   file. *)
let expect_refused dir name data =
  let path = Filename.concat dir (name ^ ".apt") in
  write_file path data;
  let r = Salvage.scan path in
  (match r.Salvage.sv_issue with
  | Some (Apt_error.Version_mismatch _) -> ()
  | Some e ->
      Alcotest.failf "%s: expected Version_mismatch, got %s" name
        (Apt_error.to_string e)
  | None -> Alcotest.failf "%s: scanned clean" name);
  Alcotest.(check int) (name ^ ": no records") 0
    (List.length r.Salvage.sv_records);
  Alcotest.(check int) (name ^ ": nothing salvageable") 0
    r.Salvage.sv_valid_bytes;
  let out = Filename.concat dir (name ^ ".recovered") in
  Alcotest.(check (option int)) (name ^ ": nothing recovered") None
    (Salvage.recover r ~out);
  Alcotest.(check bool) (name ^ ": no file written") false (Sys.file_exists out)

let test_scan_damaged_signature () =
  with_temp_dir @@ fun dir ->
  let good = file_bytes payloads in
  expect_refused dir "flipped" (patch good 1 (fun c -> c lxor 0x20));
  (* two zeroed bytes: far from APT1, still not a file to parse *)
  expect_refused dir "zeroed" (patch (patch good 0 (fun _ -> 0)) 1 (fun _ -> 0))

(* The unchecked seed layout, [u32 len | payload | u32 len] with no
   signature, is not a format this build reads. *)
let test_seed_layout_refused () =
  with_temp_dir @@ fun dir ->
  expect_refused dir "seed" "\x05\x00\x00\x00alpha\x05\x00\x00\x00"

let test_salvage_after_injected_damage () =
  with_temp_dir @@ fun dir ->
  (* write through paged with certain torn writes, then
     salvage what survives — the end-to-end crash-recovery story *)
  let config =
    {
      default_config with
      dir = Some dir;
      faults = Some { f_seed = 42; f_rate = 1.0; f_kinds = [ Torn_write ] };
    }
  in
  let store = Store_registry.find ~config "paged" in
  let w = store.start None in
  List.iter w.put payloads;
  let f = w.close () in
  let path = Option.get f.f_path in
  let r = Salvage.scan path in
  Alcotest.(check bool) "torn file is dirty" false (Salvage.is_clean r);
  let n_valid = List.length r.Salvage.sv_records in
  Alcotest.(check bool) "some records lost" true (n_valid < List.length payloads);
  let out = Filename.concat dir "salvaged.apt" in
  Alcotest.(check (option int)) "recover count" (Some n_valid)
    (Salvage.recover r ~out);
  let r2 = Salvage.scan out in
  Alcotest.(check bool) "salvaged file is clean" true (Salvage.is_clean r2);
  Alcotest.(check (list string)) "salvaged records are a prefix"
    (firstn n_valid payloads) (read_payloads out);
  f.f_dispose ()

let () =
  Alcotest.run "salvage"
    [
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
            test_scan_corrupt_and_recover;
          Alcotest.test_case "seed layout is refused" `Quick
            test_seed_layout_refused;
          Alcotest.test_case "injected torn write" `Quick
            test_salvage_after_injected_damage;
        ] );
    ]
