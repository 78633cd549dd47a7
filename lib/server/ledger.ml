(* The [linguist_tenants:1] file: the accounting columns of Session's
   tenant table, written atomically (temp + rename) on drain/shutdown
   and merged back in on start. The file comes in from disk, so [load]
   checks every row before it merges any. *)

open Lg_support.Json_out

let version = 1
let magic = "linguist_tenants"

let row_members digest (t : Session.tenant) =
  [
    ("digest", Str digest);
    ("label", Str t.Session.t_label);
    ("jobs", int t.Session.t_jobs);
    ("ok", int t.Session.t_ok);
    ( "failures",
      Obj
        (List.map
           (fun (code, n) -> (string_of_int code, int n))
           t.Session.t_failures) );
    ("queue_wait_seconds", Num t.Session.t_queue_wait);
    ("service_seconds", Num t.Session.t_service);
  ]

let to_json sessions =
  Obj
    [
      (magic, int version);
      ( "tenants",
        Arr
          (List.map
             (fun (digest, t, _) -> Obj (row_members digest t))
             (Session.tenants sessions)) );
    ]

module Atomic_out = Lg_apt.Apt_store.Atomic_out

let write_json ~path doc =
  match Atomic_out.create path with
  | exception Sys_error msg -> Error msg
  | out -> (
      match
        let oc = Atomic_out.channel out in
        output_string oc (to_string ~pretty:true doc);
        output_char oc '\n';
        Atomic_out.commit out
      with
      | () -> Ok ()
      | exception Sys_error msg ->
          Atomic_out.abort out;
          Error msg)

let save sessions ~path = write_json ~path (to_json sessions)

(* ---------- reading a row ---------- *)

let ( let* ) = Result.bind

(* integers above 2^53 have no exact double, so no count can be one *)
let count = function
  | Num f when Float.is_integer f && f >= 0.0 && f <= 9007199254740992.0 ->
      Some (int_of_float f)
  | _ -> None

let seconds = function
  | Num f when Float.is_finite f && f >= 0.0 -> Some f
  | _ -> None

let rec all f = function
  | [] -> Some []
  | x :: rest ->
      Option.bind (f x) (fun y -> Option.map (List.cons y) (all f rest))

(* exit code keys are written by [string_of_int]; read back exactly that *)
let failures = function
  | Obj buckets ->
      all
        (fun (code, n) ->
          match (int_of_string_opt code, count n) with
          | Some c, Some n when c >= 0 && string_of_int c = code -> Some (c, n)
          | _ -> None)
        buckets
  | _ -> None

let row_of_json doc =
  (* an absent field reads as its zero *)
  let field name read zero =
    match member name doc with
    | None -> Ok zero
    | Some v ->
        Option.to_result (read v)
          ~none:(Printf.sprintf "bad %S in a tenant row: %s" name (to_string v))
  in
  let* digest =
    match member "digest" doc with
    | Some (Str d) when d <> "" -> Ok d
    | _ -> Error "tenant row without a \"digest\""
  in
  let* t_label = field "label" (function Str s -> Some s | _ -> None) "" in
  let* t_jobs = field "jobs" count 0 in
  let* t_ok = field "ok" count 0 in
  let* t_failures = field "failures" failures [] in
  let* t_queue_wait = field "queue_wait_seconds" seconds 0.0 in
  let* t_service = field "service_seconds" seconds 0.0 in
  Ok
    ( digest,
      {
        Session.no_tenant with
        t_label;
        t_jobs;
        t_ok;
        t_failures;
        t_queue_wait;
        t_service;
      } )

let rows_of_json doc =
  let* () =
    match member magic doc with
    | None -> Error (Printf.sprintf "not a %s snapshot" magic)
    | Some v when v <> int version ->
        Error
          (Printf.sprintf "unsupported %s version %s" magic (to_string v))
    | Some _ -> Ok ()
  in
  match member "tenants" doc with
  | Some (Arr docs) -> (
      let rows = List.map row_of_json docs in
      match List.find_map (function Error e -> Some e | Ok _ -> None) rows with
      | Some e -> Error e
      | None -> Ok (List.filter_map Result.to_option rows))
  | _ -> Error "\"tenants\" must be an array"

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text ->
      (match parse text with
      | exception Failure msg -> Error ("not JSON: " ^ msg)
      | doc -> rows_of_json doc)
      |> Result.map_error (fun msg -> path ^ ": " ^ msg)

let load sessions ~path =
  let* rows = read ~path in
  Session.merge_tenants sessions rows;
  Ok (List.length rows)
