type loc = Lnode of Ir.occ * int | Lglobal of int | Lframe of int
type rexpr = loc Ir.expr

type action =
  | Read_child of int
  | Visit_child of int
  | Write_child of int
  | Eval of { rule : int; code : rexpr; targets : loc list }
  | Save of { global : int; frame : int }
  | Set_global of { global : int; from : loc }
  | Restore of { global : int; frame : int }
  | Capture of { global : int; frame : int }

type prod_plan = {
  pp_prod : int;
  pp_actions : action list;
  pp_frame_size : int;
  pp_subsumed_rules : int list;
}

type pass_plan = {
  pl_pass : int;
  pl_dir : Pass_assign.direction;
  pl_prods : prod_plan array;
}

type t = {
  ir : Ir.t;
  passes : Pass_assign.result;
  dead : Dead.t;
  alloc : Subsume.allocation;
  pass_plans : pass_plan array;
}

let index_of x xs =
  let rec go i = function
    | [] -> invalid_arg "Plan.index_of"
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 xs

let slot_in_node (ir : Ir.t) (prod : Ir.production) (aref : Ir.aref) =
  match aref.Ir.occ with
  | Ir.Lhs -> index_of aref.Ir.attr ir.symbols.(prod.p_lhs).Ir.s_attrs
  | Ir.Rhs i -> index_of aref.Ir.attr ir.symbols.(prod.p_rhs.(i)).Ir.s_attrs
  | Ir.Limb_occ ->
      let lhs_attrs = ir.symbols.(prod.p_lhs).Ir.s_attrs in
      let limb =
        match prod.p_limb with
        | Some l -> l
        | None -> invalid_arg "Plan.slot_in_node: limb of limbless production"
      in
      List.length lhs_attrs + index_of aref.Ir.attr ir.symbols.(limb).Ir.s_attrs

let node_slots (ir : Ir.t) ~sym ~prod =
  let base = List.length ir.symbols.(sym).Ir.s_attrs in
  if prod < 0 then base
  else
    match ir.prods.(prod).Ir.p_limb with
    | Some limb -> base + List.length ir.symbols.(limb).Ir.s_attrs
    | None -> base

let record_attrs t ~sym ~prod ~pass =
  let symbol_part = Dead.write_set_sym t.dead ~sym ~pass in
  if prod < 0 then symbol_part
  else symbol_part @ Dead.write_set_limb t.dead ~prod ~pass

let pp_loc ir prod ppf = function
  | Lnode (occ, slot) -> Format.fprintf ppf "%s[%d]" (Ir.occ_name ir prod occ) slot
  | Lglobal g -> Format.fprintf ppf "G%d" g
  | Lframe f -> Format.fprintf ppf "t%d" f

let pp_action ir prod ppf = function
  | Read_child i -> Format.fprintf ppf "read %s" (Ir.occ_name ir prod (Ir.Rhs i))
  | Visit_child i -> Format.fprintf ppf "visit %s" (Ir.occ_name ir prod (Ir.Rhs i))
  | Write_child i -> Format.fprintf ppf "write %s" (Ir.occ_name ir prod (Ir.Rhs i))
  | Eval { rule; targets; code } ->
      Format.fprintf ppf "eval r%d: %a := %a" rule
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (pp_loc ir prod))
        targets
        (Ir.pp_expr (pp_loc ir prod))
        code
  | Save { global; frame } -> Format.fprintf ppf "save t%d := G%d" frame global
  | Set_global { global; from } ->
      Format.fprintf ppf "set G%d := %a" global (pp_loc ir prod) from
  | Restore { global; frame } ->
      Format.fprintf ppf "restore G%d := t%d" global frame
  | Capture { global; frame } ->
      Format.fprintf ppf "capture t%d := G%d" frame global
