(* Offline integrity scan and recovery for APT files — the engine behind
   the CLI's [apt-fsck] subcommand.

   [scan] walks a file record by record through the same
   [Apt_store.Record_codec] the stores read with, so it detects exactly
   what a store would: checksum mismatches, header/trailer disagreement,
   torn frames, unreadable signatures. The walk stops at the first
   integrity failure; everything before it is the longest valid prefix,
   which [recover] rewrites — reframed and freshly checksummed — to a new
   file. A file whose signature is unreadable has no valid prefix at
   all: nothing in it is trusted, so nothing is recovered. *)

open Apt_store

type record_info = { r_offset : int; r_len : int  (** payload bytes *) }

type report = {
  sv_path : string;
  sv_size : int;
  sv_records : record_info list;  (** valid records, in file order *)
  sv_issue : Apt_error.t option;  (** first integrity failure, if any *)
  sv_valid_bytes : int;  (** longest valid prefix of the file *)
}

let is_clean r = r.sv_issue = None

let read_file path =
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  let data = really_input_string ic size in
  close_in ic;
  data

let source_of_string path data =
  {
    Record_codec.src_path = path;
    src_size = String.length data;
    src_read =
      (fun ~pos ~len ~want:_ ->
        if pos < 0 || pos + len > String.length data then
          Apt_error.raise_
            (Apt_error.Truncated_file
               { path; offset = pos; detail = "read past end of file" })
        else String.sub data pos len);
  }

(* Registry view of a scan: how many files were walked, how much of them
   was intact, how many needed recovery. *)
let publish_report r =
  let m = Lg_support.Metrics.ambient () in
  if Lg_support.Metrics.enabled m then begin
    Lg_support.Metrics.incr m "salvage.scans";
    Lg_support.Metrics.incr m "salvage.records_valid"
      ~by:(List.length r.sv_records);
    Lg_support.Metrics.incr m "salvage.bytes_valid" ~by:r.sv_valid_bytes;
    if not (is_clean r) then Lg_support.Metrics.incr m "salvage.dirty_files"
  end;
  r

let scan path =
  let data = read_file path in
  let size = String.length data in
  let src = source_of_string (Some path) data in
  match Record_codec.sniff ~path:(Some path) data with
  | exception Apt_error.Error e ->
      (* unreadable signature: nothing before the first record is valid *)
      publish_report
        {
          sv_path = path;
          sv_size = size;
          sv_records = [];
          sv_issue = Some e;
          sv_valid_bytes = 0;
        }
  | () ->
      let records = ref [] in
      let pos = ref Framed.data_start in
      let issue = ref None in
      (try
         let continue = ref true in
         while !continue do
           match Record_codec.next_forward src ~pos:!pos with
           | None -> continue := false
           | Some (payload, next) ->
               records :=
                 { r_offset = !pos; r_len = String.length payload } :: !records;
               pos := next
         done
       with Apt_error.Error e -> issue := Some e);
      publish_report
        {
          sv_path = path;
          sv_size = size;
          sv_records = List.rev !records;
          sv_issue = !issue;
          sv_valid_bytes = !pos;
        }

(* Rewrite the longest valid prefix to [out], reframed with fresh
   checksums. Returns the number of records recovered, or [None] —
   writing nothing — when the signature was unreadable. *)
let recover report ~out =
  if report.sv_valid_bytes < Framed.data_start then None
  else begin
    let data = read_file report.sv_path in
    let src = source_of_string (Some report.sv_path) data in
    let och = Atomic_out.create out in
    let oc = Atomic_out.channel och in
    output_string oc Framed.magic;
    let n =
      List.fold_left
        (fun n { r_offset; r_len = _ } ->
          match Record_codec.next_forward src ~pos:r_offset with
          | Some (payload, _) ->
              let header, trailer = Record_codec.frame payload in
              output_string oc header;
              output_string oc payload;
              output_string oc trailer;
              n + 1
          | None -> n)
        0 report.sv_records
    in
    Atomic_out.commit och;
    let m = Lg_support.Metrics.ambient () in
    if Lg_support.Metrics.enabled m then
      Lg_support.Metrics.incr m "salvage.records_recovered" ~by:n;
    Some n
  end

let pp_report ppf r =
  Format.fprintf ppf "%s: %d bytes@." r.sv_path r.sv_size;
  List.iter
    (fun { r_offset; r_len } ->
      Format.fprintf ppf "  ok      %8d  payload %d bytes@." r_offset r_len)
    r.sv_records;
  (match r.sv_issue with
  | Some e -> Format.fprintf ppf "  BAD     %s@." (Apt_error.to_string e)
  | None -> ());
  Format.fprintf ppf "%d valid records, %d of %d bytes valid%s@."
    (List.length r.sv_records) r.sv_valid_bytes r.sv_size
    (if is_clean r then "; file is clean" else "")
