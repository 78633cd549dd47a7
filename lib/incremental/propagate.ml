open Lg_support
open Lg_apt
open Linguist

exception Stuck of string

(* Occurrence codes for dependency-index keys: Lhs and Limb_occ get
   negative codes, Rhs positions their index. *)
let occ_code = function
  | Ir.Lhs -> -1
  | Ir.Limb_occ -> -2
  | Ir.Rhs i -> i

type dep_index = (int * int, int list) Hashtbl.t array
(* per production: (occ code, attr id) -> consuming rule ids *)

let dep_index (ir : Ir.t) : dep_index =
  let index =
    Array.map (fun (_ : Ir.production) -> Hashtbl.create 8) ir.Ir.prods
  in
  Array.iter
    (fun (r : Ir.rule) ->
      let tbl = index.(r.Ir.r_prod) in
      List.iter
        (fun (d : Ir.aref) ->
          let key = (occ_code d.Ir.occ, d.Ir.attr) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
          if not (List.mem r.Ir.r_id prev) then
            Hashtbl.replace tbl key (r.Ir.r_id :: prev))
        r.Ir.r_deps)
    ir.Ir.rules;
  index

type outcome = { fired : int; waves : int; changed : int; cache_hits : int }

(* The shared evaluator core: demand-compute missing instances, record
   every write into the versioned store, report changed cached values to
   [on_changed]. *)
let evaluator ~(ir : Ir.t) ~versions ~parents ~on_fire ~on_changed ~budget =
  let in_progress : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let fired = ref 0 in
  let hits = ref 0 in
  let changed = ref 0 in
  let find_rule prod pred =
    List.find_opt (fun rid -> pred ir.Ir.rules.(rid)) ir.Ir.prods.(prod).Ir.p_rules
  in
  let rec value_of (n : Tree.t) attr_id =
    let a = ir.Ir.attrs.(attr_id) in
    if a.Ir.a_kind = Ir.Intrinsic then begin
      if n.Tree.prod <> Node.leaf_prod then
        invalid_arg "Propagate: intrinsic attribute on interior node";
      n.Tree.leaf_attrs.(Ir.slot_of_attr ir attr_id)
    end
    else
      match Attr_versions.find versions ~node:n.Tree.id ~attr:attr_id with
      | Some v ->
          incr hits;
          v
      | None -> (
          let key = (n.Tree.id, attr_id) in
          if Hashtbl.mem in_progress key then
            raise
              (Stuck
                 (Printf.sprintf "attribute %S demanded circularly"
                    a.Ir.a_name));
          Hashtbl.replace in_progress key ();
          Fun.protect
            ~finally:(fun () -> Hashtbl.remove in_progress key)
            (fun () ->
              (match a.Ir.a_kind with
              | Ir.Intrinsic -> assert false
              | Ir.Synthesized | Ir.Limb_attr -> (
                  let prod = n.Tree.prod in
                  if prod = Node.leaf_prod then
                    invalid_arg "Propagate: synthesized attribute on a leaf";
                  let wanted =
                    if a.Ir.a_kind = Ir.Synthesized then Ir.Lhs else Ir.Limb_occ
                  in
                  match
                    find_rule prod (fun r ->
                        Ir.rule_defines r { Ir.occ = wanted; attr = attr_id })
                  with
                  | Some rid -> fire n rid
                  | None -> invalid_arg "Propagate: no defining rule")
              | Ir.Inherited -> (
                  match Hashtbl.find_opt parents n.Tree.id with
                  | None -> invalid_arg "Propagate: inherited attribute at root"
                  | Some (pn, pos) -> (
                      match
                        find_rule pn.Tree.prod (fun r ->
                            Ir.rule_defines r
                              { Ir.occ = Ir.Rhs pos; attr = attr_id })
                      with
                      | Some rid -> fire pn rid
                      | None -> invalid_arg "Propagate: no defining rule")));
              match
                Attr_versions.find versions ~node:n.Tree.id ~attr:attr_id
              with
              | Some v -> v
              | None -> raise (Stuck "rule did not define its target")))

  (* Fire one rule at production instance [n]: evaluate the right-hand
     side against current values and record every target. *)
  and fire (n : Tree.t) rid =
    on_fire n rid;
    incr fired;
    if !fired > budget then
      raise (Stuck "propagation exceeded its firing budget (cyclic plan?)");
    let r = ir.Ir.rules.(rid) in
    let kids = lazy (Array.of_list n.Tree.children) in
    let owner_of (aref : Ir.aref) =
      match aref.Ir.occ with
      | Ir.Lhs | Ir.Limb_occ -> n
      | Ir.Rhs i -> (Lazy.force kids).(i)
    in
    let values =
      Sem_ops.eval_rule
        (fun (aref : Ir.aref) -> value_of (owner_of aref) aref.Ir.attr)
        r.Ir.r_rhs
        ~n_targets:(List.length r.Ir.r_targets)
    in
    List.iter2
      (fun (tgt : Ir.aref) v ->
        let owner = owner_of tgt in
        match
          Attr_versions.record versions ~node:owner.Tree.id ~attr:tgt.Ir.attr v
        with
        | Attr_versions.Changed ->
            incr changed;
            on_changed owner tgt.Ir.attr
        | Attr_versions.Created | Attr_versions.Unchanged -> ())
      r.Ir.r_targets values
  in
  (value_of, fire, fired, hits, changed)

let demand ~ir ~versions ~parents node attr =
  let ignore2 _ _ = () in
  let value_of, _, _, _, _ =
    evaluator ~ir ~versions ~parents ~on_fire:ignore2 ~on_changed:ignore2
      ~budget:max_int
  in
  value_of node attr

let run ~(ir : Ir.t) ~(index : dep_index) ~versions ~parents ~tracer ~seeds
    ~max_fired =
  (* Consumers of the instance (node, attr): rules of the node's own
     production reading it as Lhs/Limb, plus rules of the parent's
     production reading it at the node's right-hand-side position. *)
  let pending : (int * int, Tree.t) Hashtbl.t = Hashtbl.create 64 in
  let enqueue (n : Tree.t) rid =
    let key = (n.Tree.id, rid) in
    if not (Hashtbl.mem pending key) then Hashtbl.replace pending key n
  in
  let on_changed (n : Tree.t) attr =
    (if n.Tree.prod <> Node.leaf_prod then
       let own = index.(n.Tree.prod) in
       List.iter
         (fun code ->
           match Hashtbl.find_opt own (code, attr) with
           | Some rules -> List.iter (enqueue n) rules
           | None -> ())
         [ -1; -2 ]);
    match Hashtbl.find_opt parents n.Tree.id with
    | None -> ()
    | Some (pn, pos) -> (
        match Hashtbl.find_opt index.(pn.Tree.prod) (pos, attr) with
        | Some rules -> List.iter (enqueue pn) rules
        | None -> ())
  in
  (* Rules already fired during the seed pass (directly or through
     demand recursion) need no second unconditional firing. *)
  let seed_fired : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let on_fire (n : Tree.t) rid = Hashtbl.replace seed_fired (n.Tree.id, rid) () in
  let _, fire, fired, hits, changed =
    evaluator ~ir ~versions ~parents ~on_fire ~on_changed ~budget:max_fired
  in
  let waves = ref 0 in
  let wave_span name f =
    Trace.span tracer ~cat:"incremental" name (fun () ->
        f ();
        Trace.add_args tracer
          [ ("fired", Trace.Int !fired); ("changed", Trace.Int !changed) ])
  in
  (* Wave 0: fire every rule of every fresh production instance. *)
  wave_span "wave 0" (fun () ->
      List.iter
        (fun (seed : Tree.t) ->
          List.iter
            (fun rid ->
              if not (Hashtbl.mem seed_fired (seed.Tree.id, rid)) then
                fire seed rid)
            ir.Ir.prods.(seed.Tree.prod).Ir.p_rules)
        seeds);
  (* Then drain change-propagation waves to the fixpoint. *)
  while Hashtbl.length pending > 0 do
    incr waves;
    let batch = Hashtbl.fold (fun (_, rid) n acc -> (n, rid) :: acc) pending [] in
    Hashtbl.reset pending;
    wave_span
      (Printf.sprintf "wave %d" !waves)
      (fun () -> List.iter (fun (n, rid) -> fire n rid) batch)
  done;
  { fired = !fired; waves = !waves; changed = !changed; cache_hits = !hits }
