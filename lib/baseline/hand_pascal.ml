open Lg_support

type message = { line : int; tag : string; name : string }
type compiled = { code : Value.t; messages : message list }

exception Syntax_error of int * string

type token = {
  kind : string;  (** keyword or one of ID NUM op-names *)
  text : string;
  line : int;
}

let keywords =
  [
    "program"; "var"; "begin"; "end"; "if"; "then"; "else"; "while"; "do";
    "writeln"; "integer"; "boolean"; "not"; "true"; "false";
  ]

let lex source =
  let n = String.length source in
  let tokens = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push kind text = tokens := { kind; text; line = !line } :: !tokens in
  while !i < n do
    let c = source.[!i] in
    if Char.equal c '\n' then begin
      incr line;
      incr i
    end
    else if Char.equal c ' ' || Char.equal c '\t' || Char.equal c '\r' then incr i
    else if Char.equal c '{' then begin
      while !i < n && not (Char.equal source.[!i] '}') do
        if Char.equal source.[!i] '\n' then incr line;
        incr i
      done;
      if !i < n then incr i
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && source.[!i] >= '0' && source.[!i] <= '9' do
        incr i
      done;
      push "NUM" (String.sub source start (!i - start))
    end
    else if c >= 'a' && c <= 'z' then begin
      let start = !i in
      while
        !i < n
        && ((source.[!i] >= 'a' && source.[!i] <= 'z')
           || (source.[!i] >= '0' && source.[!i] <= '9')
           || Char.equal source.[!i] '_')
      do
        incr i
      done;
      let text = String.sub source start (!i - start) in
      if List.mem text keywords then push text text else push "ID" text
    end
    else if Char.equal c ':' && !i + 1 < n && Char.equal source.[!i + 1] '=' then begin
      push ":=" ":=";
      i := !i + 2
    end
    else
      match c with
      | ';' | ':' | '.' | '+' | '-' | '*' | '<' | '>' | '=' | '(' | ')' ->
          push (String.make 1 c) (String.make 1 c);
          incr i
      | c -> raise (Syntax_error (!line, Printf.sprintf "illegal character %C" c))
  done;
  List.rev !tokens

type typ = Tint | Tbool | Terr

let compile source =
  let tokens = ref (lex source) in
  let names = Interner.create () in
  let messages = ref [] in
  let report line tag name = messages := { line; tag; name } :: !messages in
  let peek () = match !tokens with t :: _ -> Some t | [] -> None in
  let next () =
    match !tokens with
    | t :: rest ->
        tokens := rest;
        t
    | [] -> raise (Syntax_error (0, "unexpected end of input"))
  in
  let expect kind =
    let t = next () in
    if not (String.equal t.kind kind) then
      raise
        (Syntax_error (t.line, Printf.sprintf "expected %s, found %s" kind t.kind));
    t
  in
  let symtab : (string, typ) Hashtbl.t = Hashtbl.create 16 in
  (* Instruction constructors — identical vocabulary to the AG compiler. *)
  let push_i n = Value.Term ("Push", [ Value.Int n ]) in
  let load_i id = Value.Term ("Load", [ Value.Name id ]) in
  let store_i id = Value.Term ("Store", [ Value.Name id ]) in
  let simple_i op = Value.Term (op, []) in
  let jmpf_i k = Value.Term ("JmpF", [ Value.Int k ]) in
  let jmp_i k = Value.Term ("Jmp", [ Value.Int k ]) in
  (* Expressions: returns (type, code as reversed list). *)
  let rec parse_factor () =
    let t = next () in
    match t.kind with
    | "NUM" -> (Tint, [ push_i (int_of_string t.text) ])
    | "ID" ->
        let typ =
          match Hashtbl.find_opt symtab t.text with
          | Some typ -> typ
          | None ->
              report t.line "UndeclaredVariable" t.text;
              Terr
        in
        (typ, [ load_i (Interner.intern names t.text) ])
    | "true" -> (Tbool, [ push_i 1 ])
    | "false" -> (Tbool, [ push_i 0 ])
    | "(" ->
        let r = parse_expr () in
        ignore (expect ")");
        r
    | "not" ->
        let typ, code = parse_factor () in
        let typ =
          match typ with
          | Tbool -> Tbool
          | Terr -> Terr
          | Tint ->
              report t.line "NotNeedsBoolean" "";
              Terr
        in
        (typ, simple_i "Not" :: code)
    | k -> raise (Syntax_error (t.line, "unexpected " ^ k))
  and parse_term () =
    let rec go (typ, code) =
      match peek () with
      | Some { kind = "*"; line; _ } ->
          ignore (next ());
          let ft, fc = parse_factor () in
          let typ =
            match (typ, ft) with
            | Tint, Tint -> Tint
            | Terr, _ | _, Terr -> Terr
            | _ ->
                report line "ArithmeticNeedsIntegers" "";
                Terr
          in
          go (typ, (simple_i "Mul" :: fc) @ code)
      | _ -> (typ, code)
    in
    go (parse_factor ())
  and parse_simple () =
    let rec go (typ, code) =
      match peek () with
      | Some { kind = ("+" | "-") as op; line; _ } ->
          ignore (next ());
          let tt, tc = parse_term () in
          let typ =
            match (typ, tt) with
            | Tint, Tint -> Tint
            | Terr, _ | _, Terr -> Terr
            | _ ->
                report line "ArithmeticNeedsIntegers" "";
                Terr
          in
          let ins = if String.equal op "+" then "Add" else "Sub" in
          go (typ, (simple_i ins :: tc) @ code)
      | _ -> (typ, code)
    in
    go (parse_term ())
  and parse_expr () =
    let lt, lc = parse_simple () in
    match peek () with
    | Some { kind = ("<" | ">" | "=") as op; line; _ } ->
        ignore (next ());
        let rt, rc = parse_simple () in
        let typ =
          match (op, lt, rt) with
          | _, Terr, _ | _, _, Terr -> Terr
          | ("<" | ">"), Tint, Tint -> Tbool
          | "=", a, b when a = b -> Tbool
          | ("<" | ">"), _, _ ->
              report line "ComparisonNeedsIntegers" "";
              Terr
          | _ ->
              report line "ComparisonTypeMismatch" "";
              Terr
        in
        let ins =
          match op with "<" -> "Lt" | ">" -> "Gt" | _ -> "Eq"
        in
        (typ, (simple_i ins :: rc) @ lc)
    | _ -> (lt, lc)
  in
  let rec parse_stmt () =
    let t = next () in
    match t.kind with
    | "ID" ->
        ignore (expect ":=");
        let et, ec = parse_expr () in
        (match Hashtbl.find_opt symtab t.text with
        | None -> report t.line "UndeclaredVariable" t.text
        | Some vt ->
            if vt <> et && et <> Terr then
              report t.line "AssignmentTypeMismatch" t.text);
        store_i (Interner.intern names t.text) :: ec
    | "if" ->
        let ct, cc = parse_expr () in
        if ct <> Tbool && ct <> Terr then report t.line "ConditionNotBoolean" "";
        ignore (expect "then");
        let then_code = parse_stmt () in
        ignore (expect "else");
        let else_code = parse_stmt () in
        (* code layout identical to the AG: E JmpF(|T|+1) T Jmp(|E2|) E2 *)
        else_code
        @ (jmp_i (List.length else_code) :: then_code)
        @ (jmpf_i (List.length then_code + 1) :: cc)
    | "while" ->
        let ct, cc = parse_expr () in
        if ct <> Tbool && ct <> Terr then report t.line "ConditionNotBoolean" "";
        ignore (expect "do");
        let body = parse_stmt () in
        let clen = List.length cc and blen = List.length body in
        (jmp_i (-(clen + blen + 2)) :: body) @ (jmpf_i (blen + 1) :: cc)
    | "begin" ->
        let code = parse_stmts () in
        ignore (expect "end");
        code
    | "writeln" ->
        ignore (expect "(");
        let et, ec = parse_expr () in
        ignore (expect ")");
        if et = Tbool then report t.line "WritelnNeedsInteger" "";
        simple_i "Writeln" :: ec
    | k -> raise (Syntax_error (t.line, "unexpected " ^ k))
  and parse_stmts () =
    let code = parse_stmt () in
    match peek () with
    | Some { kind = ";"; _ } ->
        ignore (next ());
        parse_stmts () @ code
    | _ -> code
  in
  let parse_decls () =
    let rec go () =
      match peek () with
      | Some { kind = "ID"; _ } ->
          let id = next () in
          ignore (expect ":");
          let ty = next () in
          let typ =
            match ty.kind with
            | "integer" -> Tint
            | "boolean" -> Tbool
            | k -> raise (Syntax_error (ty.line, "expected a type, found " ^ k))
          in
          ignore (expect ";");
          if Hashtbl.mem symtab id.text then
            report id.line "DuplicateDeclaration" id.text;
          Hashtbl.replace symtab id.text typ;
          go ()
      | _ -> ()
    in
    go ()
  in
  ignore (expect "program");
  ignore (expect "ID");
  ignore (expect ";");
  (match peek () with
  | Some { kind = "var"; _ } ->
      ignore (next ());
      parse_decls ()
  | _ -> ());
  ignore (expect "begin");
  let code = parse_stmts () in
  ignore (expect "end");
  ignore (expect ".");
  { code = Value.List (List.rev code); messages = List.rev !messages }
