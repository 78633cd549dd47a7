open Lg_support

type attr_kind = Inherited | Synthesized | Intrinsic | Limb_attr

type attr = {
  a_id : int;
  a_sym : int;
  a_name : string;
  a_type : string;
  a_kind : attr_kind;
}

type sym_kind = Terminal | Nonterminal | Limb

type symbol = {
  s_id : int;
  s_name : string;
  s_kind : sym_kind;
  s_attrs : int list;
}

type occ = Lhs | Rhs of int | Limb_occ
type aref = { occ : occ; attr : int }

type 'leaf expr =
  | Cconst of Value.t
  | Cref of 'leaf
  | Ccall of string * 'leaf expr list
  | Cbinop of Ag_ast.binop * 'leaf expr * 'leaf expr
  | Cnot of 'leaf expr
  | Cneg of 'leaf expr
  | Cif of ('leaf expr * 'leaf expr list) list * 'leaf expr list

type rule = {
  r_id : int;
  r_prod : int;
  r_targets : aref array;
  r_rhs : int expr;
  r_deps : aref array;
  r_implicit : bool;
  r_line : int;
  r_col : int;
  r_start : int;
  r_stop : int;
}

type production = {
  p_id : int;
  p_lhs : int;
  p_rhs : int array;
  p_limb : int option;
  p_rules : int list;
  p_tag : string;
}

type t = {
  grammar_name : string;
  source_file : string;
  symbols : symbol array;
  attrs : attr array;
  prods : production array;
  rules : rule array;
  root : int;
  strategy : Ag_ast.strategy;
  source_lines : int;
}

let attrs_of_sym t sym = List.map (fun a -> t.attrs.(a)) t.symbols.(sym).s_attrs

let find_attr t ~sym ~name =
  List.find_opt (fun a -> String.equal a.a_name name) (attrs_of_sym t sym)

let slot_of_attr t attr_id =
  let a = t.attrs.(attr_id) in
  let rec index i = function
    | [] -> invalid_arg "Ir.slot_of_attr: attribute not in its symbol"
    | x :: rest -> if x = attr_id then i else index (i + 1) rest
  in
  index 0 t.symbols.(a.a_sym).s_attrs

let rule_span t r =
  let start_p = { Loc.line = r.r_line; col = r.r_col; offset = r.r_start } in
  Loc.span t.source_file start_p { start_p with offset = r.r_stop }

let copy_ends r =
  match (r.r_targets, r.r_rhs) with
  | [| t |], Cref i -> Some (t, r.r_deps.(i))
  | _ -> None

let rule_defines r aref =
  Array.fold_left (fun found t -> found || t = aref) false r.r_targets

let rec arity = function
  | Cconst _ | Cref _ | Ccall _ | Cbinop _ | Cnot _ | Cneg _ -> Some 1
  | Cif (branches, else_) ->
      let list_arity exprs =
        List.fold_left
          (fun acc e ->
            match (acc, arity e) with
            | Some a, Some b -> Some (a + b)
            | _ -> None)
          (Some 0) exprs
      in
      let candidates = List.map (fun (_, vs) -> list_arity vs) branches in
      let candidates = list_arity else_ :: candidates in
      List.fold_left
        (fun acc c ->
          match (acc, c) with
          | Some a, Some b when a = b -> Some a
          | _ -> None)
        (List.hd candidates)
        (List.tl candidates)

(* The [Cref i] leaves of small operand indices, shared by every rule:
   most right-hand sides are a bare reference to their first operand. *)
let shared_crefs = Array.init 8 (fun i -> Cref i)
let cref i = if i < Array.length shared_crefs then shared_crefs.(i) else Cref i

let operands e =
  (* the references seen so far, the latest (operand [n - 1]) first *)
  let deps = ref [] and n = ref 0 in
  let index r =
    let rec find i = function
      | d :: rest -> if d = r then i else find (i - 1) rest
      | [] ->
          deps := r :: !deps;
          incr n;
          !n - 1
    in
    cref (find (!n - 1) !deps)
  in
  let rec go = function
    | Cconst _ as c -> c
    | Cref r -> index r
    | Ccall (f, args) -> Ccall (f, List.map go args)
    | Cbinop (op, a, b) ->
        let a = go a in
        Cbinop (op, a, go b)
    | Cnot a -> Cnot (go a)
    | Cneg a -> Cneg (go a)
    | Cif (branches, else_) ->
        let branches =
          List.map
            (fun (c, vs) ->
              let c = go c in
              (c, List.map go vs))
            branches
        in
        Cif (branches, List.map go else_)
  in
  let e = go e in
  (e, Array.of_list (List.rev !deps))

type stats = {
  lines : int;
  n_symbols : int;
  n_attrs : int;
  n_prods : int;
  n_occurrences : int;
  n_rules : int;
  n_copy_rules : int;
  n_implicit_copy_rules : int;
}

let stats t =
  let n_occurrences =
    Array.fold_left
      (fun acc p ->
        let occ_attrs sym = List.length t.symbols.(sym).s_attrs in
        let rhs = Array.fold_left (fun a sym -> a + occ_attrs sym) 0 p.p_rhs in
        let limb = match p.p_limb with Some s -> occ_attrs s | None -> 0 in
        acc + occ_attrs p.p_lhs + rhs + limb)
      0 t.prods
  in
  let n_copy_rules =
    Array.fold_left
      (fun acc r -> if Option.is_some (copy_ends r) then acc + 1 else acc)
      0 t.rules
  in
  let n_implicit_copy_rules =
    Array.fold_left (fun acc r -> if r.r_implicit then acc + 1 else acc) 0 t.rules
  in
  {
    lines = t.source_lines;
    n_symbols = Array.length t.symbols;
    n_attrs = Array.length t.attrs;
    n_prods = Array.length t.prods;
    n_occurrences;
    n_rules = Array.length t.rules;
    n_copy_rules;
    n_implicit_copy_rules;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v 0>lines                 %6d@,\
     symbols               %6d@,\
     attributes            %6d@,\
     productions           %6d@,\
     attribute-occurrences %6d@,\
     semantic functions    %6d@,\
     copy-rules            %6d (%.0f%%)@,\
     implicit copy-rules   %6d@]"
    s.lines s.n_symbols s.n_attrs s.n_prods s.n_occurrences s.n_rules
    s.n_copy_rules
    (100.0 *. float_of_int s.n_copy_rules /. float_of_int (max 1 s.n_rules))
    s.n_implicit_copy_rules

let to_cfg t =
  let terminal_names =
    Array.to_list t.symbols
    |> List.filter_map (fun s ->
           match s.s_kind with
           | Terminal -> Some s.s_name
           | Nonterminal | Limb -> None)
  in
  let nonterminal_names =
    Array.to_list t.symbols
    |> List.filter_map (fun s ->
           match s.s_kind with
           | Nonterminal -> Some s.s_name
           | Terminal | Limb -> None)
  in
  let prods =
    Array.to_list t.prods
    |> List.map (fun p ->
           ( t.symbols.(p.p_lhs).s_name,
             Array.to_list p.p_rhs |> List.map (fun s -> t.symbols.(s).s_name),
             p.p_tag ))
  in
  Lg_grammar.Cfg.make ~terminals:terminal_names ~nonterminals:nonterminal_names
    ~start:t.symbols.(t.root).s_name prods

let occ_name t p = function
  | Lhs -> t.symbols.(p.p_lhs).s_name ^ "$lhs"
  | Rhs i -> Printf.sprintf "%s$%d" t.symbols.(p.p_rhs.(i)).s_name (i + 1)
  | Limb_occ -> (
      match p.p_limb with Some s -> t.symbols.(s).s_name | None -> "<limb>")

let pp_aref t p ppf { occ; attr } =
  Format.fprintf ppf "%s.%s" (occ_name t p occ) t.attrs.(attr).a_name

let binop_text = function
  | Ag_ast.Add -> "+"
  | Ag_ast.Sub -> "-"
  | Ag_ast.Eq -> "="
  | Ag_ast.Ne -> "<>"
  | Ag_ast.Lt -> "<"
  | Ag_ast.Gt -> ">"
  | Ag_ast.Le -> "<="
  | Ag_ast.Ge -> ">="
  | Ag_ast.And -> "and"
  | Ag_ast.Or -> "or"

let rec pp_expr pp_leaf ppf = function
  | Cconst v -> Value.pp ppf v
  | Cref l -> pp_leaf ppf l
  | Ccall (f, args) ->
      Format.fprintf ppf "@[<hov 2>%s(%a)@]" f (pp_exprs pp_leaf) args
  | Cbinop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" (pp_expr pp_leaf) a (binop_text op)
        (pp_expr pp_leaf) b
  | Cnot a -> Format.fprintf ppf "not %a" (pp_expr pp_leaf) a
  | Cneg a -> Format.fprintf ppf "-%a" (pp_expr pp_leaf) a
  | Cif (branches, else_) ->
      Format.fprintf ppf "@[<hv 0>";
      List.iteri
        (fun i (c, vs) ->
          Format.fprintf ppf "%s %a then@;<1 2>%a@ "
            (if i = 0 then "if" else "elsif")
            (pp_expr pp_leaf) c (pp_exprs pp_leaf) vs)
        branches;
      Format.fprintf ppf "else@;<1 2>%a@ endif@]" (pp_exprs pp_leaf) else_

and pp_exprs pp_leaf ppf exprs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
    (pp_expr pp_leaf) ppf exprs

let pp_rule t ppf r =
  let p = t.prods.(r.r_prod) in
  Format.fprintf ppf "@[<hov 2>%a =@ %a@]%s"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (pp_aref t p))
    (Array.to_list r.r_targets)
    (pp_expr (fun ppf i -> pp_aref t p ppf r.r_deps.(i)))
    r.r_rhs
    (if r.r_implicit then "   # implicit" else "")
