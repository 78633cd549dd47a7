type loc = Lnode of Ir.occ * int | Lglobal of int | Lframe of int

type action =
  | Read_child of int
  | Visit_child of int
  | Write_child of int
  | Eval of { rule : int; operands : loc array; targets : loc array }
  | Save of { global : int; frame : int }
  | Set_global of { global : int; from : loc }
  | Restore of { global : int; frame : int }
  | Capture of { global : int; frame : int }

type prod_plan = {
  pp_prod : int;
  pp_actions : action array;
  pp_frame_size : int;
  pp_subsumed_rules : int list;
}

type pass_plan = {
  pl_pass : int;
  pl_dir : Pass_assign.direction;
  pl_prods : prod_plan array;
}

(* [interior.(pass).(prod)] and [leaf.(pass).(sym)], passes 0..n *)
type records = { interior : int array array array; leaf : int array array array }

type t = {
  ir : Ir.t;
  passes : Pass_assign.result;
  dead : Dead.t;
  alloc : Subsume.allocation;
  pass_plans : pass_plan array;
  records : records;
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

let record_layout (ir : Ir.t) dead ~n_passes =
  (* equal tables are stored once: most of them repeat *)
  let shared = Hashtbl.create 64 in
  let share slots =
    let a = Array.of_list slots in
    match Hashtbl.find_opt shared a with
    | Some s -> s
    | None -> Hashtbl.add shared a a; a
  in
  let kept ~pass ?(base = 0) sym =
    List.concat
      (List.mapi
         (fun i a -> if Dead.written dead ~pass a then [ base + i ] else [])
         ir.symbols.(sym).Ir.s_attrs)
  in
  let per_pass layout items =
    Array.init (n_passes + 1) (fun pass ->
        Array.map (fun x -> share (layout ~pass x)) items)
  in
  let base (p : Ir.production) = List.length ir.symbols.(p.p_lhs).Ir.s_attrs in
  {
    leaf = per_pass (fun ~pass (s : Ir.symbol) -> kept ~pass s.s_id) ir.symbols;
    interior =
      per_pass
        (fun ~pass (p : Ir.production) ->
          kept ~pass p.p_lhs
          @ List.concat_map (kept ~pass ~base:(base p)) (Option.to_list p.p_limb))
        ir.prods;
  }

let record_slots t ~sym ~prod ~pass =
  if prod < 0 then t.records.leaf.(pass).(sym)
  else t.records.interior.(pass).(prod)

let pp_loc ir prod ppf = function
  | Lnode (occ, slot) -> Format.fprintf ppf "%s[%d]" (Ir.occ_name ir prod occ) slot
  | Lglobal g -> Format.fprintf ppf "G%d" g
  | Lframe f -> Format.fprintf ppf "t%d" f

let pp_action ir prod ppf = function
  | Read_child i -> Format.fprintf ppf "read %s" (Ir.occ_name ir prod (Ir.Rhs i))
  | Visit_child i -> Format.fprintf ppf "visit %s" (Ir.occ_name ir prod (Ir.Rhs i))
  | Write_child i -> Format.fprintf ppf "write %s" (Ir.occ_name ir prod (Ir.Rhs i))
  | Eval { rule; operands; targets } ->
      Format.fprintf ppf "eval r%d: %a := %a" rule
        (Format.pp_print_array
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (pp_loc ir prod))
        targets
        (Ir.pp_expr (fun ppf i -> pp_loc ir prod ppf operands.(i)))
        ir.Ir.rules.(rule).Ir.r_rhs
  | Save { global; frame } -> Format.fprintf ppf "save t%d := G%d" frame global
  | Set_global { global; from } ->
      Format.fprintf ppf "set G%d := %a" global (pp_loc ir prod) from
  | Restore { global; frame } ->
      Format.fprintf ppf "restore G%d := t%d" global frame
  | Capture { global; frame } ->
      Format.fprintf ppf "capture t%d := G%d" frame global
