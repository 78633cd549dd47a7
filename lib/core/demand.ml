open Lg_support
open Lg_apt

exception Circular of string

type result = {
  outputs : (string * Value.t) list;
  applications : (int * Value.t list) list;
}

type ctx = {
  node : Tree.t;
  parent : (ctx * int) option;
  kids : ctx array Lazy.t;
}

let rec make_ctx parent node =
  let rec ctx =
    {
      node;
      parent;
      kids =
        lazy
          (Array.of_list
             (List.mapi (fun i c -> make_ctx (Some (ctx, i)) c) node.Tree.children));
    }
  in
  ctx

type cell = In_progress | Done of Value.t

(* The full evaluator returns both results and a way to demand single
   instances; [evaluate] and [instance] are thin wrappers. *)
let eval_all (ir : Ir.t) tree =
  let memo : (int * int, cell) Hashtbl.t = Hashtbl.create 256 in
  let applications = ref [] in
  let find_rule prod pred =
    List.find_opt (fun rid -> pred ir.rules.(rid)) ir.prods.(prod).Ir.p_rules
  in
  let rec instance_value (ctx : ctx) attr_id =
    let key = (ctx.node.Tree.id, attr_id) in
    match Hashtbl.find_opt memo key with
    | Some (Done v) -> v
    | Some In_progress ->
        raise
          (Circular
             (Printf.sprintf "attribute %S of a %s node is circularly defined"
                ir.attrs.(attr_id).Ir.a_name
                ir.symbols.(ir.attrs.(attr_id).Ir.a_sym).Ir.s_name))
    | None -> (
        Hashtbl.replace memo key In_progress;
        let a = ir.attrs.(attr_id) in
        match a.a_kind with
        | Ir.Intrinsic ->
            let v =
              if ctx.node.Tree.prod <> Node.leaf_prod then
                invalid_arg "Demand: intrinsic attribute on interior node"
              else ctx.node.Tree.leaf_attrs.(Ir.slot_of_attr ir attr_id)
            in
            Hashtbl.replace memo key (Done v);
            v
        | Ir.Synthesized | Ir.Limb_attr -> (
            let prod = ctx.node.Tree.prod in
            if prod < 0 then
              invalid_arg "Demand: synthesized attribute demanded on a leaf";
            let wanted_occ =
              if a.a_kind = Ir.Synthesized then Ir.Lhs else Ir.Limb_occ
            in
            match
              find_rule prod (fun r ->
                  Ir.rule_defines r { Ir.occ = wanted_occ; attr = attr_id })
            with
            | Some rid ->
                apply_rule ctx rid;
                done_value key
            | None -> invalid_arg "Demand: no defining rule (checker bug)")
        | Ir.Inherited -> (
            match ctx.parent with
            | None -> invalid_arg "Demand: inherited attribute at the root"
            | Some (pctx, pos) -> (
                let prod = pctx.node.Tree.prod in
                match
                  find_rule prod (fun r ->
                      Ir.rule_defines r { Ir.occ = Ir.Rhs pos; attr = attr_id })
                with
                | Some rid ->
                    apply_rule pctx rid;
                    done_value key
                | None -> invalid_arg "Demand: no defining rule (checker bug)")))

  and done_value key =
    match Hashtbl.find_opt memo key with
    | Some (Done v) -> v
    | _ -> invalid_arg "Demand: rule did not define its target"

  (* Evaluate one rule application (at the production instance [ctx]) and
     memoize all its targets. *)
  and apply_rule (ctx : ctx) rid =
    let r = ir.rules.(rid) in
    let owner_of (aref : Ir.aref) =
      match aref.Ir.occ with
      | Ir.Lhs | Ir.Limb_occ -> ctx
      | Ir.Rhs i -> (Lazy.force ctx.kids).(i)
    in
    let values =
      Sem_ops.eval_rule
        (fun (aref : Ir.aref) -> instance_value (owner_of aref) aref.Ir.attr)
        r.Ir.r_deps r.Ir.r_rhs
        ~n_targets:(Array.length r.Ir.r_targets)
    in
    Sem_ops.assign
      (fun (tgt : Ir.aref) v ->
        let owner = owner_of tgt in
        Hashtbl.replace memo (owner.node.Tree.id, tgt.Ir.attr) (Done v))
      r.Ir.r_targets values;
    applications := (rid, values) :: !applications
  in
  let root_ctx = make_ctx None tree in
  if tree.Tree.prod < 0 || ir.prods.(tree.Tree.prod).Ir.p_lhs <> ir.root then
    invalid_arg "Demand: tree is not rooted at the root symbol";
  (* Force every rule application everywhere. *)
  let rec force ctx =
    let prod = ctx.node.Tree.prod in
    if prod >= 0 then begin
      List.iter
        (fun rid ->
          match ir.rules.(rid).Ir.r_targets with
          | [||] -> ()
          | targets ->
              let tgt = targets.(0) in
              let owner =
                match tgt.Ir.occ with
                | Ir.Lhs | Ir.Limb_occ -> ctx
                | Ir.Rhs i -> (Lazy.force ctx.kids).(i)
              in
              ignore (instance_value owner tgt.Ir.attr))
        ir.prods.(prod).Ir.p_rules;
      Array.iter force (Lazy.force ctx.kids)
    end
  in
  force root_ctx;
  (root_ctx, instance_value, List.rev !applications)

let evaluate (ir : Ir.t) tree =
  let root_ctx, instance_value, applications = eval_all ir tree in
  let outputs =
    List.filter_map
      (fun (a : Ir.attr) ->
        if a.a_kind = Ir.Synthesized then
          Some (a.a_name, Value.normalize (instance_value root_ctx a.a_id))
        else None)
      (Ir.attrs_of_sym ir ir.root)
  in
  { outputs; applications }

let instance (ir : Ir.t) tree ~path ~attr =
  let root_ctx, instance_value, _ = eval_all ir tree in
  let rec walk ctx = function
    | [] -> ctx
    | i :: rest -> walk (Lazy.force ctx.kids).(i) rest
  in
  let target = walk root_ctx path in
  let sym =
    if target.node.Tree.prod < 0 then target.node.Tree.sym
    else ir.prods.(target.node.Tree.prod).Ir.p_lhs
  in
  match Ir.find_attr ir ~sym ~name:attr with
  | None -> invalid_arg "Demand.instance: no such attribute"
  | Some a -> Value.normalize (instance_value target a.Ir.a_id)
