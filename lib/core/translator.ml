open Lg_support
open Lg_apt

type t = {
  ir : Ir.t;
  plan : Plan.t;
  tables : Lg_lalr.Tables.t;
  scanner : Lg_scanner.Tables.t;
  terminal_of_kind : (string, int) Hashtbl.t;  (** token kind -> CFG terminal *)
  sym_of_terminal : int array;  (** CFG terminal -> IR symbol id *)
  terminal_attrs : Ir.attr array array;
      (** CFG terminal -> its symbol's attributes, in slot order *)
  names : Interner.t;
  intrinsics : Lg_scanner.Engine.token -> string -> Value.t option;
}

let interner t = t.names
let ir t = t.ir
let plan t = t.plan
let parse_tables t = t.tables

let assemble ~intrinsics ~scanner (artifact : Driver.artifact) =
  let ir = artifact.Driver.ir in
  let cfg = Ir.to_cfg ir in
  let terminal_of_kind = Hashtbl.create 64 in
  Array.iteri
    (fun i name -> Hashtbl.replace terminal_of_kind name i)
    cfg.Lg_grammar.Cfg.terminals;
  let sym_of_terminal = Array.make (Lg_grammar.Cfg.terminal_count cfg) (-1) in
  Array.iter
    (fun (s : Ir.symbol) ->
      if s.Ir.s_kind = Ir.Terminal then
        Option.iter
          (fun i -> sym_of_terminal.(i) <- s.Ir.s_id)
          (Hashtbl.find_opt terminal_of_kind s.Ir.s_name))
    ir.Ir.symbols;
  let terminal_attrs =
    Array.map
      (fun sym ->
        if sym < 0 then [||] else Array.of_list (Ir.attrs_of_sym ir sym))
      sym_of_terminal
  in
  {
    ir;
    plan = artifact.Driver.plan;
    tables = Lg_lalr.Tables.build cfg;
    scanner = Lg_scanner.Tables.compile scanner;
    terminal_of_kind;
    sym_of_terminal;
    terminal_attrs;
    names = Interner.create ();
    intrinsics;
  }

(* Translation reads only the IR and the plan: the listing and the
   generated Pascal modules belong to [compile]. *)
let process ?(options = Driver.default_options) ~file ag_source =
  Driver.process ~file
    ~options:{ options with Driver.emit_listing = false; emit_code = false }
    ag_source

let make ?options ?(intrinsics = fun _ _ -> None) ~scanner ~ag_source ~file () =
  match process ?options ~file ag_source with
  | Error diag -> Error diag
  | Ok artifact -> Ok (assemble ~intrinsics ~scanner artifact)

let make_exn ?options ?intrinsics ~scanner ~ag_source ~file () =
  match make ?options ?intrinsics ~scanner ~ag_source ~file () with
  | Ok t -> t
  | Error diag ->
      failwith (Format.asprintf "Translator.make:@.%a" Diag.pp_all diag)

(* A scanner derived from the grammar itself: one identifier rule whose
   keyword table maps every terminal name to itself, so input texts are
   whitespace-separated terminal names. This is how generated corpus
   grammars — whose terminals have no concrete lexical shape — get a
   working front end without a hand-written scanner spec. *)
let symbolic_scanner ir =
  let keywords =
    Array.to_list ir.Ir.symbols
    |> List.filter_map (fun (s : Ir.symbol) ->
           if s.Ir.s_kind = Ir.Terminal then Some (s.Ir.s_name, s.Ir.s_name)
           else None)
  in
  Lg_scanner.Spec.make ~keywords ~keyword_rules:[ "SYM" ]
    [
      ("WS", "[ \\t\\r\\n]+", Lg_scanner.Spec.Skip);
      ("COMMENT", "#[^\\n]*", Lg_scanner.Spec.Skip);
      ("SYM", "[A-Za-z][A-Za-z0-9_$]*", Lg_scanner.Spec.Token);
    ]

(* Symbolic inputs carry no lexeme payload beyond the terminal name, so
   non-conventional intrinsics default to the name's trailing digit run
   (terminal [k7] supplies 7) — enough to give every generated grammar
   live intrinsic values. Conventional names fall through to the
   LINE/COL/NAME/BASENAME/TEXT/LEXVAL defaults of [leaf_of_token]. *)
let symbolic_intrinsics (token : Lg_scanner.Engine.token) attr =
  match attr with
  | "LINE" | "COL" | "NAME" | "BASENAME" | "TEXT" | "LEXVAL" -> None
  | _ ->
      let lex = token.Lg_scanner.Engine.lexeme in
      let n = String.length lex in
      let i = ref n in
      while !i > 0 && lex.[!i - 1] >= '0' && lex.[!i - 1] <= '9' do
        decr i
      done;
      let v =
        if !i < n then int_of_string (String.sub lex !i (n - !i))
        else if n > 0 && lex.[n - 1] >= 'a' && lex.[n - 1] <= 'z' then
          Char.code lex.[n - 1] - Char.code 'a'
        else 0
      in
      Some (Value.Int v)

let of_source ?options ?(intrinsics = symbolic_intrinsics) ~ag_source ~file () =
  match process ?options ~file ag_source with
  | Error diag -> Error diag
  | Ok artifact ->
      Ok
        (assemble ~intrinsics
           ~scanner:(symbolic_scanner artifact.Driver.ir)
           artifact)

(* Build the leaf of a token of CFG terminal [term], with its intrinsic
   slot array. *)
let leaf_of_token t term (token : Lg_scanner.Engine.token) =
  let vals =
    Array.map
      (fun (a : Ir.attr) ->
        match t.intrinsics token a.a_name with
        | Some v -> v
        | None -> (
            match a.a_name with
            | "LINE" ->
                Value.Int token.Lg_scanner.Engine.span.Loc.start_p.Loc.line
            | "COL" -> Value.Int token.Lg_scanner.Engine.span.Loc.start_p.Loc.col
            | "NAME" ->
                Value.Name (Interner.intern t.names token.Lg_scanner.Engine.lexeme)
            | "BASENAME" ->
                (* the lexeme with its numeric occurrence suffix stripped:
                   "expr1" -> "expr" *)
                let base, _ =
                  Ag_ast.strip_occurrence_suffix token.Lg_scanner.Engine.lexeme
                in
                Value.Name (Interner.intern t.names base)
            | "TEXT" -> Value.Str token.Lg_scanner.Engine.lexeme
            | "LEXVAL" -> (
                match int_of_string_opt token.Lg_scanner.Engine.lexeme with
                | Some n -> Value.Int n
                | None -> Value.Str token.Lg_scanner.Engine.lexeme)
            | _ -> Value.Bottom))
      t.terminal_attrs.(term)
  in
  Tree.leaf ~sym:t.sym_of_terminal.(term) ~attrs:vals

(* The scanner's tokens as CFG terminals, lazily; a token whose kind is
   not a terminal of the grammar is reported and dropped. *)
let terminals t ~file ~diag source =
  Lg_scanner.Engine.tokens t.scanner ~file ~diag source
  |> Seq.filter_map (fun (token : Lg_scanner.Engine.token) ->
         match Hashtbl.find_opt t.terminal_of_kind token.kind with
         | Some term -> Some (term, token)
         | None ->
             Diag.error diag token.span
               "scanner produced token %S which is not a terminal of the grammar"
               token.kind;
             None)

let tree_of_source t ~file ~diag source =
  let ir = t.ir in
  let cfg = Lg_lalr.Tables.grammar t.tables in
  let shift term token = leaf_of_token t term token in
  let reduce prod children =
    Tree.interior ~prod ~sym:ir.Ir.prods.(prod).Ir.p_lhs ~children
  in
  let result =
    Lg_lalr.Driver.parse t.tables ~shift ~reduce
      (terminals t ~file ~diag source)
  in
  (* The parse forced the whole scan, even if it failed. A scan or
     classification error rejects the input and suppresses syntax errors. *)
  if not (Diag.is_ok diag) then None
  else
    match result with
    | Ok tree -> Some tree
    | Error e ->
        let span =
          match
            Seq.uncons
              (Seq.drop e.Lg_lalr.Driver.at
                 (terminals t ~file ~diag:(Diag.create ()) source))
          with
          | Some ((_, token), _) -> token.Lg_scanner.Engine.span
          | None -> Loc.span file Loc.start_pos Loc.start_pos
        in
        let expected =
          e.Lg_lalr.Driver.expected
          |> List.map (Lg_grammar.Cfg.terminal_name cfg)
          |> String.concat ", "
        in
        Diag.error diag span "syntax error; expected one of: %s" expected;
        None

type translation = {
  outputs : (string * Value.t) list;
  eval_stats : Engine.run_stats;
  tree_size : int;
  input_lines : int;
}

let run_tree ?engine_options t source tree =
  let result = Engine.run ?options:engine_options t.plan tree in
  {
    outputs = result.Engine.outputs;
    eval_stats = result.Engine.stats;
    tree_size = Tree.size tree;
    input_lines = Lg_scanner.Engine.line_count source;
  }

let translate ?engine_options t ~file source =
  let diag = Diag.create () in
  match tree_of_source t ~file ~diag source with
  | None -> Error diag
  | Some tree -> (
      (* degrade gracefully: evaluation failures — logic errors and the
         typed APT integrity/resource errors alike — come back as
         diagnostics, never as exceptions *)
      try Ok (run_tree ?engine_options t source tree) with
      | Engine.Evaluation_error msg ->
          Diag.error diag (Loc.span file Loc.start_pos Loc.start_pos)
            "evaluation failed: %s" msg;
          Error diag
      | Apt_error.Error e ->
          Apt_error.add_to_diag diag e;
          Error diag)

let translate_exn ?engine_options t ~file source =
  let diag = Diag.create () in
  match tree_of_source t ~file ~diag source with
  | None ->
      failwith (Format.asprintf "Translator.translate:@.%a" Diag.pp_all diag)
  | Some tree -> (
      (* [Apt_error.Error] propagates untouched so exception-style callers
         (the CLI) can dispatch on the failure class and its exit code *)
      try run_tree ?engine_options t source tree
      with Engine.Evaluation_error msg ->
        Diag.error diag (Loc.span file Loc.start_pos Loc.start_pos)
          "evaluation failed: %s" msg;
        failwith (Format.asprintf "Translator.translate:@.%a" Diag.pp_all diag))
