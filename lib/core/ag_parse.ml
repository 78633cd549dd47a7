open Lg_support
open Ag_ast

type pv =
  | Tok of Lg_scanner.Engine.token
  | Pspec of spec
  | Psections of section list  (** reversed *)
  | Psection of section
  | Psymdecls of sym_decl list  (** reversed *)
  | Psymdecl of sym_decl
  | Pattrdecls of attr_decl list  (** reversed *)
  | Pattrdecl of attr_decl
  | Pkind of attr_kind
  | Pprods of prod_decl list  (** reversed *)
  | Pprod of prod_decl
  | Prhs of string list  (** reversed *)
  | Plimb of string option
  | Psems of semfn list  (** reversed *)
  | Psemfn of semfn
  | Ptargets of target list  (** reversed *)
  | Ptarget of target
  | Pexpr of expr
  | Pexprs of expr list  (** reversed *)
  | Pelifs of branch list  (** reversed *)

let tok = function Tok t -> t | _ -> assert false
let lexeme v = (tok v).Lg_scanner.Engine.lexeme
let span v = (tok v).Lg_scanner.Engine.span
let expr = function Pexpr e -> e | _ -> assert false
let exprs = function Pexprs es -> List.rev es | _ -> assert false

(* STRING lexemes arrive with their quotes and escapes. *)
let unquote s =
  let body = String.sub s 1 (String.length s - 2) in
  let buf = Buffer.create (String.length body) in
  let rec go i =
    if i < String.length body then
      if Char.equal body.[i] '\\' && i + 1 < String.length body then begin
        (match body.[i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | c -> Buffer.add_char buf c);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf body.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let binop op a b =
  Ebinop (op, a, b, Loc.merge (expr_span a) (expr_span b))

let reduce_action tag children =
  match (tag, children) with
  | "spec", [ g; name; _; Psections secs ] ->
      Pspec
        { name = lexeme name; sections = List.rev secs; sp_span = span g }
  | "sections_snoc", [ Psections secs; Psection s ] -> Psections (s :: secs)
  | "sections_one", [ Psection s ] -> Psections [ s ]
  | "sec_root", [ _; name; _ ] -> Psection (Sec_root (lexeme name, span name))
  | "sec_strat_bu", [ s; _; _ ] -> Psection (Sec_strategy (Bottom_up, span s))
  | "sec_strat_rd", [ s; _; _ ] ->
      Psection (Sec_strategy (Recursive_descent, span s))
  | "sec_terminals", [ _; Psymdecls ds; _ ] ->
      Psection (Sec_symbols (Sterminals, List.rev ds))
  | "sec_nonterminals", [ _; Psymdecls ds; _ ] ->
      Psection (Sec_symbols (Snonterminals, List.rev ds))
  | "sec_limbs", [ _; Psymdecls ds; _ ] ->
      Psection (Sec_symbols (Slimbs, List.rev ds))
  | "sec_prods", [ _; Pprods ps; _ ] -> Psection (Sec_productions (List.rev ps))
  | "symdecls_snoc", [ Psymdecls ds; Psymdecl d ] -> Psymdecls (d :: ds)
  | "symdecls_one", [ Psymdecl d ] -> Psymdecls [ d ]
  | "symdecl_plain", [ name; _ ] ->
      Psymdecl { sym_name = lexeme name; sym_attrs = []; s_span = span name }
  | "symdecl_attrs", [ name; _; Pattrdecls ds; _ ] ->
      Psymdecl
        { sym_name = lexeme name; sym_attrs = List.rev ds; s_span = span name }
  | "attrdecls_snoc", [ Pattrdecls ds; _; Pattrdecl d ] -> Pattrdecls (d :: ds)
  | "attrdecls_one", [ Pattrdecl d ] -> Pattrdecls [ d ]
  | "attrdecl_kind", [ Pkind k; name; _; ty ] ->
      Pattrdecl
        {
          attr_name = lexeme name;
          attr_type = lexeme ty;
          attr_kind = k;
          a_span = span name;
        }
  | "attrdecl_plain", [ name; _; ty ] ->
      Pattrdecl
        {
          attr_name = lexeme name;
          attr_type = lexeme ty;
          attr_kind = Kplain;
          a_span = span name;
        }
  | "kind_inh", [ _ ] -> Pkind Kinh
  | "kind_syn", [ _ ] -> Pkind Ksyn
  | "kind_intr", [ _ ] -> Pkind Kintrinsic
  | "prods_snoc", [ Pprods ps; Pprod p ] -> Pprods (p :: ps)
  | "prods_one", [ Pprod p ] -> Pprods [ p ]
  | "prod", [ lhs; _; Prhs rhs; Plimb limb; Psems sems; _ ] ->
      Pprod
        {
          lhs = lexeme lhs;
          rhs = List.rev rhs;
          limb;
          sems = List.rev sems;
          p_span = span lhs;
        }
  | "rhs_snoc", [ Prhs rhs; name ] -> Prhs (lexeme name :: rhs)
  | "rhs_nil", [] -> Prhs []
  | "limb_some", [ _; name ] -> Plimb (Some (lexeme name))
  | "limb_none", [] -> Plimb None
  | "sem_some", [ _; Psems sems ] -> Psems sems
  | "sem_none", [] -> Psems []
  | "semfns_snoc", [ Psems sems; _; Psemfn f ] -> Psems (f :: sems)
  | "semfns_one", [ Psemfn f ] -> Psems [ f ]
  | "semfn", [ Ptargets targets; _; Pexpr rhs ] ->
      let targets = List.rev targets in
      let f_span =
        match targets with
        | t :: _ -> Loc.merge (target_span t) (expr_span rhs)
        | [] -> expr_span rhs
      in
      Psemfn { targets; rhs; f_span }
  | "targets_snoc", [ Ptargets ts; _; Ptarget t ] -> Ptargets (t :: ts)
  | "targets_one", [ Ptarget t ] -> Ptargets [ t ]
  | "target_dot", [ occ; _; attr ] ->
      Ptarget (Tdot (lexeme occ, lexeme attr, Loc.merge (span occ) (span attr)))
  | "target_bare", [ name ] -> Ptarget (Tbare (lexeme name, span name))
  | ("expr_disj" | "expr_if"), [ Pexpr e ] -> Pexpr e
  | "ifexpr", [ kw; Pexpr cond; _; thn; Pelifs elifs; _; els; endkw ] ->
      let first = { cond; values = exprs thn } in
      Pexpr
        (Eif
           ( first :: List.rev elifs,
             exprs els,
             Loc.merge (span kw) (span endkw) ))
  | "elif_snoc", [ Pelifs elifs; _; Pexpr cond; _; values ] ->
      Pelifs ({ cond; values = exprs values } :: elifs)
  | "elif_nil", [] -> Pelifs []
  | "exprlist_snoc", [ Pexprs es; _; Pexpr e ] -> Pexprs (e :: es)
  | "exprlist_one", [ Pexpr e ] -> Pexprs [ e ]
  | "or", [ a; _; b ] -> Pexpr (binop Or (expr a) (expr b))
  | "and", [ a; _; b ] -> Pexpr (binop And (expr a) (expr b))
  | "eq", [ a; _; b ] -> Pexpr (binop Eq (expr a) (expr b))
  | "ne", [ a; _; b ] -> Pexpr (binop Ne (expr a) (expr b))
  | "lt", [ a; _; b ] -> Pexpr (binop Lt (expr a) (expr b))
  | "gt", [ a; _; b ] -> Pexpr (binop Gt (expr a) (expr b))
  | "le", [ a; _; b ] -> Pexpr (binop Le (expr a) (expr b))
  | "ge", [ a; _; b ] -> Pexpr (binop Ge (expr a) (expr b))
  | "add", [ a; _; b ] -> Pexpr (binop Add (expr a) (expr b))
  | "sub", [ a; _; b ] -> Pexpr (binop Sub (expr a) (expr b))
  | ("disj_one" | "conj_one" | "rel_one" | "arith_one" | "term_atom"), [ Pexpr e ]
    ->
      Pexpr e
  | "not", [ kw; Pexpr e ] ->
      Pexpr (Enot (e, Loc.merge (span kw) (expr_span e)))
  | "neg", [ kw; Pexpr e ] ->
      Pexpr (Eneg (e, Loc.merge (span kw) (expr_span e)))
  | "num", [ n ] -> Pexpr (Enum (int_of_string (lexeme n), span n))
  | "str", [ s ] -> Pexpr (Estr (unquote (lexeme s), span s))
  | "true", [ t ] -> Pexpr (Ebool (true, span t))
  | "false", [ t ] -> Pexpr (Ebool (false, span t))
  | "ident", [ x ] -> Pexpr (Eident (lexeme x, span x))
  | "dotref", [ occ; _; attr ] ->
      Pexpr (Edot (lexeme occ, lexeme attr, Loc.merge (span occ) (span attr)))
  | "call", [ f; _; Pexprs args; rp ] ->
      Pexpr (Ecall (lexeme f, List.rev args, Loc.merge (span f) (span rp)))
  | "call0", [ f; _; rp ] ->
      Pexpr (Ecall (lexeme f, [], Loc.merge (span f) (span rp)))
  | "paren", [ _; Pexpr e; _ ] -> Pexpr e
  | tag, children ->
      invalid_arg
        (Printf.sprintf "Ag_parse: bad reduction %s/%d" tag
           (List.length children))

let parse ~file ~diag input =
  let { Ag_grammar.lalr = tables; terminal_of_kind } =
    Lg_support.Once.force Ag_grammar.tables
  in
  let g = Lg_lalr.Tables.grammar tables in
  let classify (t : Lg_scanner.Engine.token) =
    match Hashtbl.find_opt terminal_of_kind t.kind with
    | Some term -> (term, t)
    | None ->
        invalid_arg (Printf.sprintf "Ag_parse: unknown token kind %s" t.kind)
  in
  let result =
    Lg_lalr.Driver.parse tables
      ~shift:(fun _ t -> Tok t)
      ~reduce:(fun prod children ->
        reduce_action g.Lg_grammar.Cfg.productions.(prod).Lg_grammar.Cfg.tag
          children)
      (Seq.map classify (Ag_lexer.tokens ~file ~diag input))
  in
  match result with
  | Ok (Pspec spec) -> Some spec
  | Ok _ -> assert false
  | Error _ ->
      (* The failed parse forced the whole scan, so every scan error is
         already in [diag]. Scan again, quietly, to map syntax errors back
         to tokens. *)
      let token_array =
        Array.of_seq (Ag_lexer.tokens ~file ~diag:(Diag.create ()) input)
      in
      (* Report every syntax error in the file, like overlay 1 of the
         original, which "writes a list of all syntactic errors". *)
      let report (e : Lg_lalr.Driver.error) =
        let at_span =
          if e.Lg_lalr.Driver.at < Array.length token_array then
            token_array.(e.Lg_lalr.Driver.at).Lg_scanner.Engine.span
          else if Array.length token_array > 0 then
            token_array.(Array.length token_array - 1).Lg_scanner.Engine.span
          else Loc.span file Loc.start_pos Loc.start_pos
        in
        let expected =
          e.Lg_lalr.Driver.expected
          |> List.map (Lg_grammar.Cfg.terminal_name g)
          |> String.concat ", "
        in
        let found =
          if e.Lg_lalr.Driver.at < Array.length token_array then
            token_array.(e.Lg_lalr.Driver.at).Lg_scanner.Engine.kind
          else "end of input"
        in
        Diag.error diag at_span "syntax error: found %s, expected one of: %s"
          found expected
      in
      List.iter report
        (Lg_lalr.Driver.diagnose tables
           (List.map classify (Array.to_list token_array)));
      None

let parse_exn ~file input =
  let diag = Diag.create () in
  match parse ~file ~diag input with
  | Some spec when Diag.is_ok diag -> spec
  | _ ->
      failwith
        (Format.asprintf "Ag_parse.parse_exn:@.%a" Diag.pp_all diag)
