open Lg_support
open Lg_apt
open Linguist

exception Stuck of string

(* Where a rule reads or writes an attribute instance, resolved once per
   plan: a cell of the production instance's own row, a cell of a
   child's row, or an intrinsic slot of a leaf child. [Check] gives
   intrinsic attributes to terminals alone and lets no rule define one,
   so only a right-hand-side read is a [Leaf]. *)
type loc =
  | Own of int
  | Kid of int * int  (* child position, cell *)
  | Leaf of int * int  (* child position, intrinsic slot *)

(* A rule's targets and operands, resolved; its expression stays in the
   IR, its leaf [i] reading [operands.(i)]. *)
type rule = { targets : loc array; operands : loc array }

type dep_index = {
  ir : Ir.t;
  cells : int array array;
  widths : int array;
  lhs_cells : int array;  (* per production: where its limb's cells start *)
  cell_of : int array;  (* per attribute: position among its symbol's cells *)
  defined_here : int array array;
      (* per production, per own cell: the defining rule, -1 when the
         parent's production defines it *)
  defined_below : int array array array;
      (* per production, per child position, per child cell *)
  used_here : int list array array;
  used_below : int list array array array;
  rules : rule array;
  max_rules : int;
}

let ir ix = ix.ir
let widths ix = ix.widths
let budget ix ~tree_size = 8 * ((tree_size * ix.max_rules) + 64)

let dep_index (ir : Ir.t) =
  let stored sym =
    List.filter_map
      (fun (a : Ir.attr) ->
        if a.Ir.a_kind = Ir.Intrinsic then None else Some a.Ir.a_id)
      (Ir.attrs_of_sym ir sym)
  in
  let per_sym =
    Array.map (fun (s : Ir.symbol) -> stored s.Ir.s_id) ir.Ir.symbols
  in
  let cell_of = Array.make (Array.length ir.Ir.attrs) (-1) in
  Array.iter (List.iteri (fun i a -> cell_of.(a) <- i)) per_sym;
  (* A node's cells: the stored attributes of its production's
     left-hand side, then of its limb. Terminals carry intrinsic
     attributes only, so a leaf has no row. *)
  let cells =
    Array.map
      (fun (p : Ir.production) ->
        Array.of_list
          (per_sym.(p.Ir.p_lhs)
          @ Option.fold ~none:[] ~some:(Array.get per_sym) p.Ir.p_limb))
      ir.Ir.prods
  in
  let lhs_cells =
    Array.map
      (fun (p : Ir.production) -> List.length per_sym.(p.Ir.p_lhs))
      ir.Ir.prods
  in
  let loc prod (aref : Ir.aref) =
    match aref.Ir.occ with
    | Ir.Rhs i when ir.Ir.attrs.(aref.Ir.attr).Ir.a_kind = Ir.Intrinsic ->
        Leaf (i, Ir.slot_of_attr ir aref.Ir.attr)
    | Ir.Rhs i -> Kid (i, cell_of.(aref.Ir.attr))
    | Ir.Lhs -> Own cell_of.(aref.Ir.attr)
    | Ir.Limb_occ -> Own (lhs_cells.(prod) + cell_of.(aref.Ir.attr))
  in
  let per_cell x = Array.map (fun c -> Array.make (Array.length c) x) cells in
  let per_child x =
    Array.map
      (fun (p : Ir.production) ->
        Array.map
          (fun sym -> Array.make (List.length per_sym.(sym)) x)
          p.Ir.p_rhs)
      ir.Ir.prods
  in
  let defined_here = per_cell (-1) and defined_below = per_child (-1) in
  let used_here = per_cell [] and used_below = per_child [] in
  (* The first rule in source order that defines an instance defines
     it; consumer lists run from the highest rule id down. *)
  Array.iter
    (fun (p : Ir.production) ->
      List.iter
        (fun rid ->
          Array.iter
            (fun aref ->
              match loc p.Ir.p_id aref with
              | Own c ->
                  let defs = defined_here.(p.Ir.p_id) in
                  if defs.(c) < 0 then defs.(c) <- rid
              | Kid (i, c) ->
                  let defs = defined_below.(p.Ir.p_id).(i) in
                  if defs.(c) < 0 then defs.(c) <- rid
              | Leaf _ -> ())
            ir.Ir.rules.(rid).Ir.r_targets)
        p.Ir.p_rules)
    ir.Ir.prods;
  Array.iter
    (fun (r : Ir.rule) ->
      let add uses c =
        if not (List.mem r.Ir.r_id uses.(c)) then
          uses.(c) <- r.Ir.r_id :: uses.(c)
      in
      Array.iter
        (fun aref ->
          match loc r.Ir.r_prod aref with
          | Own c -> add used_here.(r.Ir.r_prod) c
          | Kid (i, c) -> add used_below.(r.Ir.r_prod).(i) c
          | Leaf _ -> ())
        r.Ir.r_deps)
    ir.Ir.rules;
  let rules =
    Array.map
      (fun (r : Ir.rule) ->
        {
          targets = Array.map (loc r.Ir.r_prod) r.Ir.r_targets;
          operands = Array.map (loc r.Ir.r_prod) r.Ir.r_deps;
        })
      ir.Ir.rules
  in
  {
    ir;
    cells;
    widths = Array.map Array.length cells;
    lhs_cells;
    cell_of;
    defined_here;
    defined_below;
    used_here;
    used_below;
    rules;
    max_rules =
      Array.fold_left
        (fun acc (p : Ir.production) -> max acc (List.length p.Ir.p_rules))
        1 ir.Ir.prods;
  }

type outcome = { fired : int; waves : int; changed : int; cache_hits : int }

(* One evaluation: demand-compute missing instances, record every write
   into the versioned store, report changed cached values to
   [on_changed]. *)
type ctx = {
  ix : dep_index;
  versions : Attr_versions.t;
  limit : int;
  on_changed : Tree.t -> Attr_versions.row -> int -> unit;
  mutable fired : int;
  mutable hits : int;
  mutable changed : int;
}

let child (n : Tree.t) i = List.nth n.Tree.children i

let leaf_value (k : Tree.t) slot =
  if k.Tree.prod <> Node.leaf_prod then
    invalid_arg "Propagate: intrinsic attribute on interior node";
  k.Tree.leaf_attrs.(slot)

let attr_of cx (n : Tree.t) c =
  cx.ix.ir.Ir.attrs.(cx.ix.cells.(n.Tree.prod).(c))
let attr_name cx n c = (attr_of cx n c).Ir.a_name

(* The value of cell [c] of node [n], whose row is [row]. A missing
   value is computed by firing its defining rule; the cell holds the
   in-progress marker meanwhile, so demanding it again is a cycle. *)
let rec value cx (n : Tree.t) row c =
  match Attr_versions.status row c with
  | Attr_versions.Set ->
      cx.hits <- cx.hits + 1;
      Attr_versions.get row c
  | Attr_versions.Computing ->
      raise
        (Stuck
           (Printf.sprintf "attribute %S demanded circularly"
              (attr_name cx n c)))
  | Attr_versions.Absent -> (
      Attr_versions.mark row c;
      (match define cx n row c with
      | () -> ()
      | exception e ->
          Attr_versions.unmark row c;
          raise e);
      match Attr_versions.status row c with
      | Attr_versions.Set -> Attr_versions.get row c
      | Attr_versions.Absent | Attr_versions.Computing ->
          Attr_versions.unmark row c;
          raise (Stuck "rule did not define its target"))

and define cx (n : Tree.t) row c =
  let rid = cx.ix.defined_here.(n.Tree.prod).(c) in
  if rid >= 0 then fire cx n row rid
  else if (attr_of cx n c).Ir.a_kind <> Ir.Inherited then
    invalid_arg "Propagate: no defining rule"
  else begin
    let pos = Attr_versions.pos row in
    if pos < 0 then invalid_arg "Propagate: inherited attribute at root";
    let pn = Attr_versions.parent row in
    let rid = cx.ix.defined_below.(pn.Tree.prod).(pos).(c) in
    if rid < 0 then invalid_arg "Propagate: no defining rule";
    fire cx pn (Attr_versions.find cx.versions pn) rid
  end

and read cx (n : Tree.t) row = function
  | Own c -> value cx n row c
  | Kid (i, c) ->
      let k = child n i in
      value cx k (Attr_versions.find cx.versions k) c
  | Leaf (i, slot) -> leaf_value (child n i) slot

(* Fire one rule at production instance [n]: evaluate the right-hand
   side against current values and record every target. *)
and fire cx (n : Tree.t) row rid =
  cx.fired <- cx.fired + 1;
  if cx.fired > cx.limit then
    raise (Stuck "propagation exceeded its firing budget (cyclic plan?)");
  let r = cx.ix.rules.(rid) in
  let values =
    Sem_ops.eval_rule (read cx n row) r.operands
      cx.ix.ir.Ir.rules.(rid).Ir.r_rhs
      ~n_targets:(Array.length r.targets)
  in
  Sem_ops.assign (write cx n row) r.targets values

and write cx (n : Tree.t) row tgt v =
  match tgt with
  | Own c -> store cx n row c v
  | Kid (i, c) ->
      let k = child n i in
      store cx k (Attr_versions.find cx.versions k) c v
  | Leaf _ -> invalid_arg "Propagate: rule targets an intrinsic attribute"

and store cx owner row c v =
  match Attr_versions.record row c v with
  | Attr_versions.Changed ->
      cx.changed <- cx.changed + 1;
      cx.on_changed owner row c
  | Attr_versions.Created | Attr_versions.Unchanged -> ()

let context ix versions ~limit ~on_changed =
  { ix; versions; limit; on_changed; fired = 0; hits = 0; changed = 0 }

let demand ~index ~versions (n : Tree.t) attr =
  let a = index.ir.Ir.attrs.(attr) in
  if a.Ir.a_kind = Ir.Intrinsic then
    leaf_value n (Ir.slot_of_attr index.ir attr)
  else begin
    let cx =
      context index versions ~limit:max_int ~on_changed:(fun _ _ _ -> ())
    in
    let limb = a.Ir.a_sym <> index.ir.Ir.prods.(n.Tree.prod).Ir.p_lhs in
    let c =
      (if limb then index.lhs_cells.(n.Tree.prod) else 0) + index.cell_of.(attr)
    in
    value cx n (Attr_versions.find versions n) c
  end

(* The (node, rule) pairs queued for the next wave, one int each. *)
module Keys = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

(* A seed's rule was fired already in this run when one of its targets
   lies in a row this update created and holds a value: such a cell
   starts absent, and only its defining rule writes it. *)
let fired_already cx (seed : Tree.t) row rid =
  let set row c =
    Attr_versions.fresh cx.versions row
    && Attr_versions.status row c = Attr_versions.Set
  in
  Array.fold_left
    (fun fired -> function
      | Own c -> fired || set row c
      | Kid (i, c) ->
          fired || set (Attr_versions.find cx.versions (child seed i)) c
      | Leaf _ -> fired)
    false cx.ix.rules.(rid).targets

let run ~index ~versions ~tracer ~seeds ~max_fired =
  (* Consumers of a changed instance: rules of the owner's own
     production reading it as Lhs/Limb, plus rules of the parent's
     production reading it at the owner's right-hand-side position.
     A wave fires them in the order they were queued, so the counts
     depend on the tree alone, never on the values of its node ids. *)
  let n_rules = Array.length index.ir.Ir.rules in
  let queued = Keys.create 64 and queue = ref [] in
  let enqueue (n : Tree.t) rid =
    let key = (n.Tree.id * n_rules) + rid in
    if not (Keys.mem queued key) then begin
      Keys.replace queued key ();
      queue := (n, rid) :: !queue
    end
  in
  let on_changed (n : Tree.t) row c =
    List.iter (enqueue n) index.used_here.(n.Tree.prod).(c);
    (* the parent sees the left-hand side's cells, not the limb's *)
    let pos = Attr_versions.pos row in
    if pos >= 0 && c < index.lhs_cells.(n.Tree.prod) then begin
      let pn = Attr_versions.parent row in
      List.iter (enqueue pn) index.used_below.(pn.Tree.prod).(pos).(c)
    end
  in
  let cx = context index versions ~limit:max_fired ~on_changed in
  let waves = ref 0 in
  let wave_span name f =
    Trace.span tracer ~cat:"incremental" name (fun () ->
        f ();
        Trace.add_args tracer
          [
            ("fired", Trace.Int cx.fired); ("changed", Trace.Int cx.changed);
          ])
  in
  (* Wave 0: fire every rule of every fresh production instance that
     demand recursion has not fired already. *)
  wave_span "wave 0" (fun () ->
      List.iter
        (fun (seed : Tree.t) ->
          let row = Attr_versions.find versions seed in
          List.iter
            (fun rid ->
              if not (fired_already cx seed row rid) then fire cx seed row rid)
            index.ir.Ir.prods.(seed.Tree.prod).Ir.p_rules)
        seeds);
  (* Then drain change-propagation waves to the fixpoint. *)
  while !queue <> [] do
    incr waves;
    let batch = List.rev !queue in
    queue := [];
    Keys.reset queued;
    wave_span
      (Printf.sprintf "wave %d" !waves)
      (fun () ->
        List.iter
          (fun ((n : Tree.t), rid) ->
            fire cx n (Attr_versions.find versions n) rid)
          batch)
  done;
  Attr_versions.settle versions;
  {
    fired = cx.fired;
    waves = !waves;
    changed = cx.changed;
    cache_hits = cx.hits;
  }
