open Lg_support
open Lg_apt

exception Circular of string

type result = { outputs : (string * Value.t) list }

(* Two cell states besides a value, told apart from values by physical
   equality: both blocks are private to this module, so no value a rule
   computes is either of them. *)
let absent = Value.Term ("<absent>", [])
let computing = Value.Term ("<computing>", [])

(* The tree numbered breadth-first from the root (node 0), so a node's
   children are consecutive: node [i]'s are [first.(i)] up to
   [first.(i + 1) - 1]. *)
type numbering = {
  nodes : Tree.t array;
  parent : int array;  (* -1 at the root *)
  pos : int array;  (* child position under [parent] *)
  first : int array;  (* one entry more than [nodes] *)
}

let number tree =
  let n = Tree.size tree in
  let nodes = Array.make n tree and parent = Array.make n (-1) in
  let pos = Array.make n 0 and first = Array.make (n + 1) n in
  let next = ref 1 in
  for i = 0 to n - 1 do
    first.(i) <- !next;
    List.iteri
      (fun k c ->
        nodes.(!next) <- c;
        parent.(!next) <- i;
        pos.(!next) <- k;
        incr next)
      nodes.(i).Tree.children
  done;
  { nodes; parent; pos; first }

let misfit () = invalid_arg "Demand: tree does not fit the grammar"

let child num i k =
  let c = num.first.(i) + k in
  if k < 0 || c >= num.first.(i + 1) then invalid_arg "Demand: no such child";
  c

(* The one evaluator: each instance computed through its defining rule
   and kept in its node's row, every rule application reported to
   [record]. It forces every instance (preorder, each production's rules
   in order) and returns the numbering and the instance reader. *)
let run (ir : Ir.t) tree ~record =
  if tree.Tree.prod < 0 || ir.prods.(tree.Tree.prod).Ir.p_lhs <> ir.root then
    invalid_arg "Demand: tree is not rooted at the root symbol";
  let num = number tree in
  let slot = Array.init (Array.length ir.attrs) (Ir.slot_of_attr ir) in
  let width = Array.map (fun s -> List.length s.Ir.s_attrs) ir.symbols in
  (* defining rules keyed by (production, occurrence, attribute); {!Check}
     admits one per occurrence *)
  let stride =
    Array.fold_left (fun m p -> max m (Array.length p.Ir.p_rhs)) 0 ir.prods + 2
  in
  let key prod occ attr =
    let o = match occ with Ir.Lhs -> 0 | Ir.Limb_occ -> 1 | Ir.Rhs k -> k + 2 in
    if o >= stride then -1
    else (((prod * stride) + o) * Array.length slot) + attr
  in
  let defs = Hashtbl.create 1024 in
  Array.iter
    (fun (r : Ir.rule) ->
      Array.iter
        (fun (t : Ir.aref) ->
          Hashtbl.replace defs (key r.r_prod t.occ t.attr) r.r_id)
        r.r_targets)
    ir.rules;
  let defining prod occ attr =
    try Hashtbl.find defs (key prod occ attr)
    with Not_found -> invalid_arg "Demand: no defining rule (checker bug)"
  in
  (* an interior node's row, made on first use, and the cell of [attr] in
     it (terminals carry only intrinsic attributes, so leaves have none) *)
  let rows = Array.make (Array.length num.nodes) [||] in
  let row i =
    if Array.length rows.(i) = 0 then begin
      let p = ir.prods.(num.nodes.(i).Tree.prod) in
      let limb = Option.fold ~none:0 ~some:(Array.get width) p.p_limb in
      rows.(i) <- Array.make (width.(p.p_lhs) + limb) absent
    end;
    rows.(i)
  in
  let cell i attr =
    let a = ir.attrs.(attr) and prod = num.nodes.(i).Tree.prod in
    if prod < 0 then misfit ();
    match ir.prods.(prod) with
    | p when p.p_lhs = a.a_sym -> slot.(attr)
    | { p_limb = Some l; p_lhs; _ } when l = a.a_sym -> width.(p_lhs) + slot.(attr)
    | _ -> misfit ()
  in
  let owner i (aref : Ir.aref) =
    match aref.Ir.occ with Ir.Lhs | Ir.Limb_occ -> i | Ir.Rhs k -> child num i k
  in
  let rec value i attr =
    let a = ir.attrs.(attr) and node = num.nodes.(i) in
    if a.a_kind = Ir.Intrinsic then
      if node.Tree.prod <> Node.leaf_prod then
        invalid_arg "Demand: intrinsic attribute on interior node"
      else node.Tree.leaf_attrs.(slot.(attr))
    else begin
      if a.a_kind = Ir.Inherited then (
        if num.parent.(i) < 0 then
          invalid_arg "Demand: inherited attribute at the root")
      else if node.Tree.prod < 0 then
        invalid_arg "Demand: synthesized attribute demanded on a leaf";
      let c = cell i attr in
      let row = row i in
      let v = row.(c) in
      if v == computing then
        raise
          (Circular
             (Printf.sprintf "attribute %S of a %s node is circularly defined"
                a.a_name ir.symbols.(a.a_sym).Ir.s_name))
      else if v != absent then v
      else begin
        row.(c) <- computing;
        (match a.a_kind with
        | Ir.Inherited ->
            let p = num.parent.(i) in
            let prod = num.nodes.(p).Tree.prod in
            apply p (defining prod (Ir.Rhs num.pos.(i)) attr)
        | Ir.Limb_attr -> apply i (defining node.Tree.prod Ir.Limb_occ attr)
        | _ -> apply i (defining node.Tree.prod Ir.Lhs attr));
        row.(c)
      end
    end
  (* one rule application at production instance [i], all targets stored *)
  and apply i rid =
    let r = ir.rules.(rid) in
    let values =
      Sem_ops.eval_rule
        (fun (aref : Ir.aref) -> value (owner i aref) aref.Ir.attr)
        r.Ir.r_deps r.Ir.r_rhs
        ~n_targets:(Array.length r.Ir.r_targets)
    in
    Sem_ops.assign
      (fun (tgt : Ir.aref) v ->
        let o = owner i tgt in
        let c = cell o tgt.Ir.attr in
        (row o).(c) <- v)
      r.Ir.r_targets values;
    record rid values
  in
  let rec force i =
    let prod = num.nodes.(i).Tree.prod in
    if prod >= 0 then begin
      List.iter
        (fun rid ->
          match ir.rules.(rid).Ir.r_targets with
          | [||] -> ()
          | targets ->
              ignore (value (owner i targets.(0)) targets.(0).Ir.attr))
        ir.prods.(prod).Ir.p_rules;
      for c = num.first.(i) to num.first.(i + 1) - 1 do
        force c
      done
    end
  in
  force 0;
  (num, value)

let outputs (ir : Ir.t) value =
  List.filter_map
    (fun (a : Ir.attr) ->
      if a.a_kind = Ir.Synthesized then
        Some (a.a_name, Value.normalize (value 0 a.a_id))
      else None)
    (Ir.attrs_of_sym ir ir.root)

let evaluate ir tree =
  let _, value = run ir tree ~record:(fun _ _ -> ()) in
  { outputs = outputs ir value }

let evaluate_traced ir tree =
  let applications = ref [] in
  let _, value =
    run ir tree ~record:(fun rid values ->
        applications := (rid, values) :: !applications)
  in
  ({ outputs = outputs ir value }, List.rev !applications)

let instance (ir : Ir.t) tree ~path ~attr =
  let num, value = run ir tree ~record:(fun _ _ -> ()) in
  let node = List.fold_left (child num) 0 path in
  let n = num.nodes.(node) in
  let sym =
    if n.Tree.prod < 0 then n.Tree.sym else ir.prods.(n.Tree.prod).Ir.p_lhs
  in
  match Ir.find_attr ir ~sym ~name:attr with
  | None -> invalid_arg "Demand.instance: no such attribute"
  | Some a -> Value.normalize (value node a.Ir.a_id)
