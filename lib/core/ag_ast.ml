open Lg_support

type pos = int

let pos_bits = 31
let pos_mask = (1 lsl pos_bits) - 1
let pos ~start ~stop = (start lsl pos_bits) lor stop
let pos_start p = p lsr pos_bits
let pos_stop p = p land pos_mask

let pos_of_span (s : Loc.span) =
  pos ~start:s.Loc.start_p.Loc.offset ~stop:s.Loc.end_p.Loc.offset

let merge a b =
  pos
    ~start:(min (pos_start a) (pos_start b))
    ~stop:(max (pos_stop a) (pos_stop b))

type binop = Add | Sub | Eq | Ne | Lt | Gt | Le | Ge | And | Or

type expr =
  | Enum of int * pos
  | Ebool of bool * pos
  | Estr of string * pos
  | Eident of string * pos
  | Edot of string * string * pos
  | Ecall of string * expr list * pos
  | Ebinop of binop * expr * expr * pos
  | Enot of expr * pos
  | Eneg of expr * pos
  | Eif of branch list * expr list * pos

and branch = { cond : expr; values : expr list }

type target = Tdot of string * string * pos | Tbare of string * pos
type semfn = { targets : target list; rhs : expr; f_pos : pos }
type attr_kind = Kinh | Ksyn | Kintrinsic | Kplain

type attr_decl = {
  attr_name : string;
  attr_type : string;
  attr_kind : attr_kind;
  a_pos : pos;
}

type sym_section = Sterminals | Snonterminals | Slimbs
type sym_decl = { sym_name : string; sym_attrs : attr_decl list; s_pos : pos }

type prod_decl = {
  lhs : string;
  rhs : string list;
  limb : string option;
  sems : semfn list;
  p_pos : pos;
}

type strategy = Bottom_up | Recursive_descent

type section =
  | Sec_root of string * pos
  | Sec_strategy of strategy * pos
  | Sec_symbols of sym_section * sym_decl list
  | Sec_productions of prod_decl list

type spec = {
  name : string;
  sections : section list;
  file : string;
  line_starts : int array;
  sp_pos : pos;
}

let line_starts input =
  let n = ref 1 in
  String.iter (fun c -> if Char.equal c '\n' then incr n) input;
  let starts = Array.make !n 0 in
  let k = ref 1 in
  String.iteri
    (fun i c ->
      if Char.equal c '\n' then begin
        starts.(!k) <- i + 1;
        incr k
      end)
    input;
  starts

let line ~line_starts offset =
  (* the last line start at or before [offset], in [lo, hi) *)
  let rec last lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if line_starts.(mid) <= offset then last mid hi else last lo mid
  in
  last 0 (Array.length line_starts) + 1

let col ~line_starts offset =
  offset - line_starts.(line ~line_starts offset - 1) + 1

let position ~line_starts offset =
  let line = line ~line_starts offset in
  { Loc.line; col = offset - line_starts.(line - 1) + 1; offset }

let span ~file ~line_starts p =
  Loc.span file
    (position ~line_starts (pos_start p))
    (position ~line_starts (pos_stop p))

let expr_pos = function
  | Enum (_, s)
  | Ebool (_, s)
  | Estr (_, s)
  | Eident (_, s)
  | Edot (_, _, s)
  | Ecall (_, _, s)
  | Ebinop (_, _, _, s)
  | Enot (_, s)
  | Eneg (_, s)
  | Eif (_, _, s) ->
      s

let target_pos = function Tdot (_, _, s) | Tbare (_, s) -> s

let strip_occurrence_suffix name =
  let n = String.length name in
  let rec first_digit i =
    if i > 0 && Char.code name.[i - 1] >= Char.code '0'
       && Char.code name.[i - 1] <= Char.code '9'
    then first_digit (i - 1)
    else i
  in
  let cut = first_digit n in
  if cut = n || cut = 0 then (name, None)
  else (String.sub name 0 cut, int_of_string_opt (String.sub name cut (n - cut)))

let binop_text = function
  | Add -> "+"
  | Sub -> "-"
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | And -> "and"
  | Or -> "or"

(* Precedence for printing: or(1) < and(2) < relational(3) < additive(4)
   < unary(5). *)
let binop_prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Gt | Le | Ge -> 3
  | Add | Sub -> 4

let rec pp_prec prec ppf e =
  match e with
  | Enum (n, _) -> Format.pp_print_int ppf n
  | Ebool (b, _) -> Format.pp_print_bool ppf b
  | Estr (s, _) -> Format.fprintf ppf "%S" s
  | Eident (x, _) -> Format.pp_print_string ppf x
  | Edot (o, a, _) -> Format.fprintf ppf "%s.%s" o a
  | Ecall (f, args, _) ->
      Format.fprintf ppf "@[<hov 2>%s(%a)@]" f pp_expr_list args
  | Ebinop (op, a, b, _) ->
      let p = binop_prec op in
      let body ppf =
        Format.fprintf ppf "@[<hov 2>%a %s@ %a@]" (pp_prec p) a (binop_text op)
          (pp_prec (p + 1)) b
      in
      if p < prec then Format.fprintf ppf "(%t)" body else body ppf
  | Enot (a, _) -> Format.fprintf ppf "not %a" (pp_prec 5) a
  | Eneg (a, _) -> Format.fprintf ppf "-%a" (pp_prec 5) a
  | Eif (branches, else_, _) ->
      Format.fprintf ppf "@[<hv 0>";
      List.iteri
        (fun i { cond; values } ->
          Format.fprintf ppf "%s %a then@;<1 2>%a@ "
            (if i = 0 then "if" else "elsif")
            (pp_prec 0) cond pp_expr_list values)
        branches;
      Format.fprintf ppf "else@;<1 2>%a@ endif@]" pp_expr_list else_

and pp_expr_list ppf exprs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
    (pp_prec 0) ppf exprs

let pp_expr ppf e = pp_prec 0 ppf e

let pp_target ppf = function
  | Tdot (o, a, _) -> Format.fprintf ppf "%s.%s" o a
  | Tbare (a, _) -> Format.pp_print_string ppf a

let pp_semfn ppf { targets; rhs; _ } =
  Format.fprintf ppf "@[<hov 2>%a =@ %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       pp_target)
    targets pp_expr rhs
