type tenant = Language of string | Grammar of string
type op = Check | Analyze | Translate of tenant | Update of tenant

type job = {
  j_id : string;
  j_op : op;
  j_file : string;
  j_source : string option;  (* inline input text; j_file becomes a label *)
  j_doc : string option;
  j_store : string;
  j_page_size : int option;
  j_faults : Lg_apt.Apt_store.fault_spec option;
  j_depth_budget : int option;
  j_node_budget : int option;
  j_deadline : float option;
}

let version = 1
let magic = "linguist_jobs"

let make ?(id = "") ?source ?doc ?(store = "mem") ?page_size ?faults
    ?depth_budget ?node_budget ?deadline ~op ~file () =
  {
    j_id = id;
    j_op = op;
    j_file = file;
    j_source = source;
    j_doc = doc;
    j_store = store;
    j_page_size = page_size;
    j_faults = faults;
    j_depth_budget = depth_budget;
    j_node_budget = node_budget;
    j_deadline = deadline;
  }

let op_name = function
  | Check -> "check"
  | Analyze -> "analyze"
  | Translate _ -> "translate"
  | Update _ -> "update"

open Lg_support.Json_out

let job_to_json j =
  let opt name conv = function None -> [] | Some v -> [ (name, conv v) ] in
  Obj
    ([ ("id", Str j.j_id); ("op", Str (op_name j.j_op)) ]
    @ (match j.j_op with
      | Translate (Language lang) | Update (Language lang) ->
          [ ("language", Str lang) ]
      | Translate (Grammar path) | Update (Grammar path) ->
          [ ("grammar", Str path) ]
      | Check | Analyze -> [])
    @ [ ("file", Str j.j_file) ]
    @ opt "source" (fun s -> Str s) j.j_source
    @ opt "doc" (fun d -> Str d) j.j_doc
    @ [ ("store", Str j.j_store) ]
    @ opt "page_size" int j.j_page_size
    @ opt "faults" (fun f -> Str (Lg_apt.Apt_store.spec_to_string f)) j.j_faults
    @ opt "depth_budget" int j.j_depth_budget
    @ opt "node_budget" int j.j_node_budget
    @ opt "deadline" (fun d -> Num d) j.j_deadline)

let to_json jobs =
  Obj [ (magic, int version); ("jobs", Arr (List.map job_to_json jobs)) ]

let to_string ?pretty jobs = Lg_support.Json_out.to_string ?pretty (to_json jobs)

(* strict field readers: a present-but-mistyped field is an error *)
let str_member name doc =
  match member name doc with
  | Some (Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "%S must be a string" name)
  | None -> Ok None

(* an integral number inside the int range, no smaller than [min] *)
let int_member ~min name doc =
  match member name doc with
  | Some (Num f) when Float.is_integer f && Float.abs f < 0x1p62 ->
      let n = int_of_float f in
      if n >= min then Ok (Some n)
      else if min = 1 then Error (Printf.sprintf "%S must be positive" name)
      else Error (Printf.sprintf "%S must not be negative" name)
  | Some (Num _) -> Error (Printf.sprintf "%S must be an integer" name)
  | Some _ -> Error (Printf.sprintf "%S must be a number" name)
  | None -> Ok None

let num_member name doc =
  match member name doc with
  | Some (Num f) -> Ok (Some f)
  | Some _ -> Error (Printf.sprintf "%S must be a number" name)
  | None -> Ok None

let ( let* ) = Result.bind

let job_of_json ~index doc =
  match doc with
  | Obj _ ->
      let* id = str_member "id" doc in
      let* op_str = str_member "op" doc in
      let* language = str_member "language" doc in
      let* grammar = str_member "grammar" doc in
      let* doc_id = str_member "doc" doc in
      let* file = str_member "file" doc in
      let* source = str_member "source" doc in
      let* store = str_member "store" doc in
      let* page_size = int_member ~min:1 "page_size" doc in
      let* faults_str = str_member "faults" doc in
      let* depth_budget = int_member ~min:0 "depth_budget" doc in
      let* node_budget = int_member ~min:0 "node_budget" doc in
      let* deadline = num_member "deadline" doc in
      let* () =
        match deadline with
        | Some d when d <= 0.0 -> Error "\"deadline\" must be positive"
        | _ -> Ok ()
      in
      let* tenant =
        match (language, grammar) with
        | Some _, Some _ ->
            Error "\"language\" and \"grammar\" are mutually exclusive"
        | Some lang, None -> Ok (Some (Language lang))
        | None, Some path -> Ok (Some (Grammar path))
        | None, None -> Ok None
      in
      let* op =
        match (op_str, tenant) with
        | Some "check", None -> Ok Check
        | Some "analyze", None -> Ok Analyze
        | Some "translate", Some t -> Ok (Translate t)
        | Some "translate", None ->
            Error "op \"translate\" needs a \"language\" or a \"grammar\""
        | Some "update", Some t -> Ok (Update t)
        | Some "update", None ->
            Error "op \"update\" needs a \"language\" or a \"grammar\""
        | Some ("check" | "analyze"), Some _ ->
            Error
              "\"language\"/\"grammar\" only apply to ops \"translate\" and \
               \"update\""
        | Some other, _ -> Error (Printf.sprintf "unknown op %S" other)
        | None, _ -> Error "missing \"op\""
      in
      let* () =
        match (op, doc_id) with
        | Update _, _ | _, None -> Ok ()
        | _, Some _ -> Error "\"doc\" only applies to op \"update\""
      in
      let* file =
        match file with Some f -> Ok f | None -> Error "missing \"file\""
      in
      let* faults =
        match faults_str with
        | None -> Ok None
        | Some spec -> (
            match Lg_apt.Apt_store.parse_spec spec with
            | Ok f -> Ok (Some f)
            | Error msg -> Error (Printf.sprintf "\"faults\" %s: %s" spec msg))
      in
      Ok
        {
          j_id =
            (match id with
            | Some s when s <> "" -> s
            | _ -> Printf.sprintf "job-%d" (index + 1));
          j_op = op;
          j_file = file;
          j_source = source;
          j_doc = doc_id;
          j_store = Option.value store ~default:"mem";
          j_page_size = page_size;
          j_faults = faults;
          j_depth_budget = depth_budget;
          j_node_budget = node_budget;
          j_deadline = deadline;
        }
  | _ -> Error "each job must be an object"

let parse text =
  match Lg_support.Json_out.parse text with
  | exception Failure msg -> Error ("not JSON: " ^ msg)
  | doc -> (
      match member magic doc with
      | None -> Error (Printf.sprintf "not a jobfile (no %S member)" magic)
      | Some v when v <> int version ->
          Error
            (Printf.sprintf "unsupported %s version %s (this build reads %d)"
               magic
               (Lg_support.Json_out.to_string v)
               version)
      | Some _ -> (
          match member "jobs" doc with
          | Some (Arr jobs) ->
              let rec convert i acc = function
                | [] -> Ok (List.rev acc)
                | j :: rest -> (
                    match job_of_json ~index:i j with
                    | Ok job -> convert (i + 1) (job :: acc) rest
                    | Error msg -> Error (Printf.sprintf "job %d: %s" (i + 1) msg)
                    )
              in
              convert 0 [] jobs
          | _ -> Error "\"jobs\" must be an array"))

let parse_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error msg
  | text -> ( match parse text with Ok _ as ok -> ok | Error e -> Error (path ^ ": " ^ e))
