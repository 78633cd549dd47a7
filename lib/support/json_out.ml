(* One shared JSON tree for everything the system writes or reads as
   JSON: trace exports, counter dumps, bench tables, metrics snapshots,
   run manifests, and the test suite's validators. Zero dependencies;
   numbers are floats, as in JSON itself. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* ---------- writing ---------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let number f =
  (* JSON has no non-finite numbers; clamp so a Num leaf re-parses as a
     number (NaN -> 0, +/-inf -> +/-max_float) instead of becoming null *)
  let f =
    if Float.is_nan f then 0.0
    else if f = Float.infinity then Float.max_float
    else if f = Float.neg_infinity then -.Float.max_float
    else f
  in
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* shortest decimal that round-trips *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_buffer ?(pretty = false) b v =
  let add = Buffer.add_string b in
  let indent depth = add (String.make (2 * depth) ' ') in
  let rec go depth v =
    match v with
    | Null -> add "null"
    | Bool true -> add "true"
    | Bool false -> add "false"
    | Num f -> add (number f)
    | Str s ->
        add "\"";
        add (escape s);
        add "\""
    | Arr [] -> add "[]"
    | Arr l ->
        add "[";
        List.iteri
          (fun i x ->
            if i > 0 then add ",";
            if pretty then begin
              add "\n";
              indent (depth + 1)
            end;
            go (depth + 1) x)
          l;
        if pretty then begin
          add "\n";
          indent depth
        end;
        add "]"
    | Obj [] -> add "{}"
    | Obj fields ->
        add "{";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then add ",";
            if pretty then begin
              add "\n";
              indent (depth + 1)
            end;
            add "\"";
            add (escape k);
            add (if pretty then "\": " else "\":");
            go (depth + 1) x)
          fields;
        if pretty then begin
          add "\n";
          indent depth
        end;
        add "}"
  in
  go 0 v

let to_string ?pretty v =
  let b = Buffer.create 256 in
  to_buffer ?pretty b v;
  Buffer.contents b

(* ---------- reading ---------- *)

(* The descent recurses once per nesting level and reads network frames
   of up to 16 MiB, so deeper documents are refused rather than risking
   the stack; nothing this system writes nests beyond a dozen levels. *)
let max_depth = 512

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at offset %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* producers only emit \u for ASCII control characters *)
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?';
              go ()
          | Some c -> advance (); Buffer.add_char b c; go ()
          | None -> fail "unterminated escape")
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | Some ('{' | '[') when depth >= max_depth ->
        fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((key, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elements []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let member_exn key j =
  match member key j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "json: missing member %S" key)

let to_list = function Arr l -> l | _ -> failwith "json: expected array"
let to_num = function Num f -> f | _ -> failwith "json: expected number"
let to_int j = int_of_float (to_num j)
let to_str = function Str s -> s | _ -> failwith "json: expected string"
