(* Per-tenant (per session digest) accounting: job and failure counts
   by exit class plus queue-wait/service time totals, one row per digest
   ever served. The session-cache columns and quarantine strikes live in
   the Session cache and are joined in at snapshot time by the server.
   Supervision-failed jobs (a crashed worker cannot report its split)
   count toward jobs and failures but not toward the time totals.

   The ledger is the one piece of serve state quota/billing wants to
   trust across a respawn, so it round-trips through a versioned JSON
   snapshot ([linguist_tenants:1]) written atomically (temp + rename)
   on drain/shutdown and merged back in on start. *)

type row = {
  mutable r_label : string;
  mutable r_jobs : int;
  mutable r_ok : int;
  mutable r_failures : (int * int) list;  (* exit code -> count *)
  mutable r_queue_wait : float;
  mutable r_service : float;
}

type t = { lock : Mutex.t; table : (string, row) Hashtbl.t }

let version = 1
let magic = "linguist_tenants"
let create () = { lock = Mutex.create (); table = Hashtbl.create 16 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* under the lock *)
let find_row t ~digest ~label =
  match Hashtbl.find_opt t.table digest with
  | Some row -> row
  | None ->
      let row =
        {
          r_label = label;
          r_jobs = 0;
          r_ok = 0;
          r_failures = [];
          r_queue_wait = 0.0;
          r_service = 0.0;
        }
      in
      Hashtbl.replace t.table digest row;
      row

let bump_failure failures exit_code by =
  match List.assoc_opt exit_code failures with
  | Some n -> (exit_code, n + by) :: List.remove_assoc exit_code failures
  | None -> (exit_code, by) :: failures

let charge t ~digest ~label ~ok ~exit_code ~queue_wait ~service =
  if digest <> "" then
    locked t @@ fun () ->
    let row = find_row t ~digest ~label in
    if label <> "" then row.r_label <- label;
    row.r_jobs <- row.r_jobs + 1;
    if ok then row.r_ok <- row.r_ok + 1
    else row.r_failures <- bump_failure row.r_failures exit_code 1;
    row.r_queue_wait <- row.r_queue_wait +. queue_wait;
    row.r_service <- row.r_service +. service

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun digest row acc ->
          ( digest,
            row.r_label,
            row.r_jobs,
            row.r_ok,
            List.sort compare row.r_failures,
            row.r_queue_wait,
            row.r_service )
          :: acc)
        t.table [])
  |> List.sort (fun (_, a, _, _, _, _, _) (_, b, _, _, _, _, _) -> compare a b)

(* ---------- persistence ---------- *)

open Lg_support.Json_out

let to_json t =
  Obj
    [
      (magic, int version);
      ( "tenants",
        Arr
          (List.map
             (fun (digest, label, jobs, ok, failures, queue_wait, service) ->
               Obj
                 [
                   ("digest", Str digest);
                   ("label", Str label);
                   ("jobs", int jobs);
                   ("ok", int ok);
                   ( "failures",
                     Obj
                       (List.map
                          (fun (code, n) -> (string_of_int code, int n))
                          failures) );
                   ("queue_wait_seconds", Num queue_wait);
                   ("service_seconds", Num service);
                 ])
             (snapshot t)) );
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

let save t ~path = write_json ~path (to_json t)

(* merge one parsed row into the live table: counts add, labels and
   time totals follow — a restart under traffic double-counts nothing
   because load happens before the listener opens *)
let merge_row t doc =
  let str name = match member name doc with Some (Str s) -> s | _ -> "" in
  let num name = match member name doc with Some (Num f) -> f | _ -> 0.0 in
  let digest = str "digest" in
  if digest = "" then Error "tenant row without a \"digest\""
  else begin
    locked t @@ fun () ->
    let row = find_row t ~digest ~label:(str "label") in
    if str "label" <> "" then row.r_label <- str "label";
    row.r_jobs <- row.r_jobs + int_of_float (num "jobs");
    row.r_ok <- row.r_ok + int_of_float (num "ok");
    (match member "failures" doc with
    | Some (Obj fields) ->
        List.iter
          (fun (code, n) ->
            match (int_of_string_opt code, n) with
            | Some code, Num n ->
                row.r_failures <-
                  bump_failure row.r_failures code (int_of_float n)
            | _ -> ())
          fields
    | _ -> ());
    row.r_queue_wait <- row.r_queue_wait +. num "queue_wait_seconds";
    row.r_service <- row.r_service +. num "service_seconds";
    Ok ()
  end

let load t ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> (
      match parse text with
      | exception Failure msg -> Error (path ^ ": not JSON: " ^ msg)
      | doc -> (
          match member magic doc with
          | None ->
              Error (Printf.sprintf "%s: not a %s snapshot" path magic)
          | Some v when v <> int version ->
              Error
                (Printf.sprintf "%s: unsupported %s version %s" path magic
                   (to_string v))
          | Some _ -> (
              match member "tenants" doc with
              | Some (Arr rows) ->
                  let rec go n = function
                    | [] -> Ok n
                    | row :: rest -> (
                        match merge_row t row with
                        | Ok () -> go (n + 1) rest
                        | Error msg -> Error (path ^ ": " ^ msg))
                  in
                  go 0 rows
              | _ -> Error (path ^ ": \"tenants\" must be an array"))))
