(** Offline integrity scan and recovery for APT files (the CLI's
    [apt-fsck]).

    {!scan} walks a file through the same {!Apt_store.Record_codec} the
    stores read with, reporting per-record integrity with byte offsets
    and stopping at the first failure; {!recover} rewrites the longest
    valid prefix — reframed and freshly checksummed — to a new file.
    Only framed ([APT1]) files have a valid prefix: any other signature
    is reported as [Version_mismatch], a file shorter than the signature
    as [Truncated_file]. *)

type record_info = { r_offset : int; r_len : int  (** payload bytes *) }

type report = {
  sv_path : string;
  sv_size : int;
  sv_records : record_info list;  (** valid records, in file order *)
  sv_issue : Apt_error.t option;  (** first integrity failure, if any *)
  sv_valid_bytes : int;  (** longest valid prefix of the file *)
}

val is_clean : report -> bool

val scan : string -> report
(** Never raises on damaged content: integrity failures land in
    [sv_issue]. (I/O errors opening the file still raise [Sys_error].) *)

val recover : report -> out:string -> int option
(** Rewrite the valid prefix to [out] (atomically) with fresh checksums
    and return the number of records recovered. [None], and no file
    written, when the signature was unreadable: such a file has no valid
    prefix. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable per-record listing with offsets, then a summary. *)
