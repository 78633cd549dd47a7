open Lg_support

type module_code = {
  pass : int;
  text : string;
  husk_bytes : int;
  sem_bytes : int;
  subsumed_count : int;
}

let total_bytes m = m.husk_bytes + m.sem_bytes

(* Identifier sanitization: '$' is not Pascal. *)
let ident s =
  String.map (function '$' -> '_' | c -> c) (String.uppercase_ascii s)

type sink = {
  buf : Buffer.t;
  mutable husk : int;
  mutable sem : int;
}

type category = Husk | Sem | Comment

let emit sink category fmt =
  Format.kasprintf
    (fun s ->
      Buffer.add_string sink.buf s;
      match category with
      | Husk -> sink.husk <- sink.husk + String.length s
      | Sem -> sink.sem <- sink.sem + String.length s
      | Comment -> ())
    fmt

let pascal_const v =
  match v with
  | Value.Int n -> string_of_int n
  | Value.Bool true -> "true"
  | Value.Bool false -> "false"
  | Value.Str s -> Printf.sprintf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Value.Bottom -> "BOTTOM"
  | Value.Term (name, []) -> ident name
  | v -> Printf.sprintf "{const %s}" (Value.to_string v)

let binop_text = function
  | Ag_ast.Add -> "+"
  | Ag_ast.Sub -> "-"
  | Ag_ast.Eq -> "="
  | Ag_ast.Ne -> "<>"
  | Ag_ast.Lt -> "<"
  | Ag_ast.Gt -> ">"
  | Ag_ast.Le -> "<="
  | Ag_ast.Ge -> ">="
  | Ag_ast.And -> "AND"
  | Ag_ast.Or -> "OR"

let generate_pass (plan : Plan.t) ~pass =
  let ir = plan.Plan.ir in
  let pass_plan = plan.Plan.pass_plans.(pass - 1) in
  let sink = { buf = Buffer.create 8192; husk = 0; sem = 0 } in
  let subsumed_total = ref 0 in
  let dir_text =
    match pass_plan.Plan.pl_dir with
    | Pass_assign.L2r -> "left-to-right"
    | Pass_assign.R2l -> "right-to-left"
  in
  emit sink Comment "{ Pass %d: this is a %s pass }\n\n" pass dir_text;
  Array.iter
    (fun (pp : Plan.prod_plan) ->
      let prod = ir.prods.(pp.Plan.pp_prod) in
      let lhs_name = ident ir.symbols.(prod.Ir.p_lhs).Ir.s_name in
      let child_var i = Printf.sprintf "%s_%d" (ident ir.symbols.(prod.Ir.p_rhs.(i)).Ir.s_name) (i + 1) in
      let limb_var = Option.map (fun l -> ident ir.symbols.(l).Ir.s_name) prod.Ir.p_limb in
      let proc_name = Printf.sprintf "%sPP%d" (ident prod.Ir.p_tag) pass in
      (* Locate the attribute behind an Lnode slot, for field names. *)
      let field_name occ slot =
        let owner, sym, slot =
          match occ with
          | Ir.Lhs -> (lhs_name, prod.Ir.p_lhs, slot)
          | Ir.Rhs i -> (child_var i, prod.Ir.p_rhs.(i), slot)
          | Ir.Limb_occ ->
              ( Option.get limb_var,
                Option.get prod.Ir.p_limb,
                slot - List.length ir.symbols.(prod.Ir.p_lhs).Ir.s_attrs )
        in
        match List.nth_opt ir.symbols.(sym).Ir.s_attrs slot with
        | Some a -> Printf.sprintf "%s.%s" owner (ident ir.attrs.(a).Ir.a_name)
        | None -> "?"
      in
      let loc_text = function
        | Plan.Lnode (occ, slot) -> field_name occ slot
        | Plan.Lglobal g -> ident plan.Plan.alloc.Subsume.group_name.(g) ^ "_G"
        | Plan.Lframe f -> Printf.sprintf "T%d_QZP" f
      in
      (* A rule's expression, its operand [i] read at [operands.(i)]. *)
      let rec expr_text operands (e : int Ir.expr) =
        let expr_text = expr_text operands in
        match e with
        | Ir.Cconst v -> pascal_const v
        | Ir.Cref i -> loc_text operands.(i)
        | Ir.Ccall (f, args) ->
            if args = [] then ident f
            else
              Printf.sprintf "%s(%s)" (ident f)
                (String.concat ", " (List.map expr_text args))
        | Ir.Cbinop (op, a, b) ->
            Printf.sprintf "(%s %s %s)" (expr_text a) (binop_text op) (expr_text b)
        | Ir.Cnot a -> Printf.sprintf "NOT %s" (expr_text a)
        | Ir.Cneg a -> Printf.sprintf "-%s" (expr_text a)
        | Ir.Cif _ -> "{nested if}"
      in
      (* Emit an assignment of [code] to [targets] as statements. *)
      let rec emit_assign operands indent targets code =
        let expr_text = expr_text operands
        and emit_branch = emit_branch operands in
        match (code : int Ir.expr) with
        | Ir.Cif (branches, else_) ->
            List.iteri
              (fun i (cond, values) ->
                emit sink Sem "%s%s %s then begin\n" indent
                  (if i = 0 then "if" else "end else if")
                  (expr_text cond);
                emit_branch (indent ^ "  ") targets values)
              branches;
            emit sink Sem "%send else begin\n" indent;
            emit_branch (indent ^ "  ") targets else_;
            emit sink Sem "%send;\n" indent
        | code -> (
            match targets with
            | [ tgt ] ->
                emit sink Sem "%s%s := %s;\n" indent (loc_text tgt)
                  (expr_text code)
            | targets ->
                (* common value broadcast *)
                List.iter
                  (fun tgt ->
                    emit sink Sem "%s%s := %s;\n" indent (loc_text tgt)
                      (expr_text code))
                  targets)
      and emit_branch operands indent targets values =
        (* Distribute the branch's value list over the targets by arity. *)
        let rec go targets values =
          match values with
          | [] -> ()
          | v :: rest ->
              let n = Option.value ~default:1 (Ir.arity v) in
              let taken, remaining =
                let rec split k acc = function
                  | l when k = 0 -> (List.rev acc, l)
                  | x :: l -> split (k - 1) (x :: acc) l
                  | [] -> (List.rev acc, [])
                in
                split n [] targets
              in
              emit_assign operands indent taken v;
              go remaining rest
        in
        if List.length values = 1 && List.length targets > 1 then
          emit_assign operands indent targets (List.hd values)
        else go targets values
      in
      (* Declarations. *)
      emit sink Husk "procedure %s (VAR %s : %s_PQZ_type);\n" proc_name lhs_name
        lhs_name;
      let has_vars =
        Array.length prod.Ir.p_rhs > 0 || pp.Plan.pp_frame_size > 0
        || Option.is_some limb_var
      in
      if has_vars then emit sink Husk "VAR\n";
      (match limb_var with
      | Some l -> emit sink Husk "  %s : %s_PQZ_type;\n" l l
      | None -> ());
      Array.iteri
        (fun i sym ->
          emit sink Husk "  %s : %s_PQZ_type;\n" (child_var i)
            (ident ir.symbols.(sym).Ir.s_name))
        prod.Ir.p_rhs;
      for f = 0 to pp.Plan.pp_frame_size - 1 do
        emit sink Husk "  T%d_QZP : attrib_type;\n" f
      done;
      emit sink Husk "begin\n";
      (* Subsumed rules, as comments where they would have been. *)
      List.iter
        (fun rid ->
          incr subsumed_total;
          emit sink Comment "  { %s }\n"
            (Format.asprintf "%a" (Ir.pp_rule ir) ir.rules.(rid)))
        pp.Plan.pp_subsumed_rules;
      Array.iter
        (fun (action : Plan.action) ->
          match action with
          | Plan.Read_child i ->
              emit sink Husk "  GetNode%s(%s);\n"
                (ident ir.symbols.(prod.Ir.p_rhs.(i)).Ir.s_name)
                (child_var i)
          | Plan.Visit_child i ->
              emit sink Husk "  %sPP%d(%s);\n"
                (ident ir.symbols.(prod.Ir.p_rhs.(i)).Ir.s_name)
                pass (child_var i)
          | Plan.Write_child i ->
              emit sink Husk "  PutNode%s(%s);\n"
                (ident ir.symbols.(prod.Ir.p_rhs.(i)).Ir.s_name)
                (child_var i)
          | Plan.Eval { rule; operands; targets } ->
              emit_assign operands "  " (Array.to_list targets)
                ir.rules.(rule).Ir.r_rhs
          | Plan.Save { global; frame } ->
              emit sink Sem "  T%d_QZP := %s_G;\n" frame
                (ident plan.Plan.alloc.Subsume.group_name.(global))
          | Plan.Set_global { global; from } ->
              emit sink Sem "  %s_G := %s;\n"
                (ident plan.Plan.alloc.Subsume.group_name.(global))
                (loc_text from)
          | Plan.Restore { global; frame } ->
              emit sink Sem "  %s_G := T%d_QZP;\n"
                (ident plan.Plan.alloc.Subsume.group_name.(global))
                frame
          | Plan.Capture { global; frame } ->
              emit sink Sem "  T%d_QZP := %s_G;\n" frame
                (ident plan.Plan.alloc.Subsume.group_name.(global)))
        pp.Plan.pp_actions;
      emit sink Husk "end; { %s }\n\n" proc_name)
    pass_plan.Plan.pl_prods;
  {
    pass;
    text = Buffer.contents sink.buf;
    husk_bytes = sink.husk;
    sem_bytes = sink.sem;
    subsumed_count = !subsumed_total;
  }

let generate_all plan =
  List.init plan.Plan.passes.Pass_assign.n_passes (fun i ->
      generate_pass plan ~pass:(i + 1))
