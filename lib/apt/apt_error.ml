(* The typed error channel for the APT storage and evaluation stack.

   Every integrity failure the store layer can detect — a checksum
   mismatch, a short file, an unknown on-medium version, an I/O fault
   that survived the retry policy, an exhausted evaluator budget — is
   reported as a value of [t] carried by the [Error] exception, never as
   a bare [Failure] string. Callers either match on the payload (the
   fuzz harness) or render it through
   [Lg_support.Diag] and exit with the error's stable code (the CLI). *)

open Lg_support

type t =
  | Corrupt_record of { path : string option; offset : int; detail : string }
  | Truncated_file of { path : string option; offset : int; detail : string }
  | Version_mismatch of { path : string option; found : string }
  | Exhausted_retries of { path : string option; attempts : int; detail : string }
  | Resource_limit of { what : string; limit : int; detail : string }

exception Error of t

(* Transient, retryable I/O conditions (the moral equivalent of EIO or a
   short read(2)): raised below the retry layer, absorbed by it, and
   promoted to [Exhausted_retries] only when the retry budget runs out.
   Code above the store layer should never observe this exception. *)
exception Transient of string

let raise_ e = raise (Error e)
let transient msg = raise (Transient msg)

(* Stable process exit codes, pinned by test_cli.ml: tools that wrap the
   CLI (CI, build systems) dispatch on them, so they must never be
   renumbered — only extended. *)
let exit_code = function
  | Corrupt_record _ -> 40
  | Truncated_file _ -> 41
  | Version_mismatch _ -> 42
  | Exhausted_retries _ -> 43
  | Resource_limit _ -> 44

let in_file = function
  | Some path -> Printf.sprintf " in %s" path
  | None -> ""

let to_string = function
  | Corrupt_record { path; offset; detail } ->
      Printf.sprintf "corrupt APT record%s at offset %d: %s" (in_file path)
        offset detail
  | Truncated_file { path; offset; detail } ->
      Printf.sprintf "truncated APT file%s at offset %d: %s" (in_file path)
        offset detail
  | Version_mismatch { path; found } ->
      Printf.sprintf
        "APT version mismatch%s: file signature %S is not a format this \
         build reads" (in_file path) found
  | Exhausted_retries { path; attempts; detail } ->
      Printf.sprintf "APT I/O failed%s after %d attempts: %s" (in_file path)
        attempts detail
  | Resource_limit { what; limit; detail } ->
      Printf.sprintf "evaluation exceeded the %s budget (%d): %s" what limit
        detail

let path_of = function
  | Corrupt_record { path; _ }
  | Truncated_file { path; _ }
  | Version_mismatch { path; _ }
  | Exhausted_retries { path; _ } -> path
  | Resource_limit _ -> None

let to_diag e =
  let span =
    match path_of e with
    | Some path -> Loc.span path Loc.start_pos Loc.start_pos
    | None -> Loc.dummy
  in
  { Diag.severity = Diag.Error; span; message = to_string e }

let add_to_diag c e = Diag.add c (to_diag e)

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Apt_error.Error: " ^ to_string e)
    | Transient msg -> Some ("Apt_error.Transient: " ^ msg)
    | _ -> None)
