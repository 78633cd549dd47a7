open Lg_support
open Lg_apt
open Linguist

type config = { threshold : float }

let default_config = { threshold = 0.5 }

type state = {
  st_ir : Ir.t;  (* identity guard: state is only valid for its plan *)
  mutable st_fp : Fingerprint.t;
  mutable st_tree : Tree.t;
  st_versions : Attr_versions.t;
  st_parents : (int, Tree.t * int) Hashtbl.t;
  st_index : Propagate.dep_index;
  st_cells : int array array;
      (* per production: the attribute ids stored for one instance *)
}

let memory_cells st =
  Attr_versions.cardinal st.st_versions + Hashtbl.length st.st_parents

type mode =
  | Fresh of { fired : int }
  | Incremental of {
      reused : int;
      fresh : int;
      fired : int;
      waves : int;
      changed : int;
    }
  | Fallback of { reason : string; churn : float }

type result = {
  outputs : (string * Value.t) list;
  mode : mode;
  tree_size : int;
}

(* Link each child of [n] to its (parent, position). *)
let link_children parents (n : Tree.t) =
  List.iteri
    (fun i (c : Tree.t) -> Hashtbl.replace parents c.Tree.id (n, i))
    n.Tree.children

let interior_nodes tree =
  let acc = ref [] in
  Tree.iter_postfix_ltr
    (fun n -> if n.Tree.prod <> Node.leaf_prod then acc := n :: !acc)
    tree;
  !acc

let max_rules_per_prod (ir : Ir.t) =
  Array.fold_left
    (fun acc (p : Ir.production) -> max acc (List.length p.Ir.p_rules))
    1 ir.Ir.prods

let firing_budget ir tree_size = 8 * ((tree_size * max_rules_per_prod ir) + 64)

let outputs_of (ir : Ir.t) versions parents tree =
  List.filter_map
    (fun (a : Ir.attr) ->
      if a.Ir.a_kind = Ir.Synthesized then
        Some
          ( a.Ir.a_name,
            Value.normalize
              (Propagate.demand ~ir ~versions ~parents tree a.Ir.a_id) )
      else None)
    (Ir.attrs_of_sym ir ir.Ir.root)

(* The stored instances of one node: the non-intrinsic attributes of
   its production's left-hand side and limb. Terminals carry intrinsic
   attributes only, so a leaf stores nothing. *)
let cells_per_prod (ir : Ir.t) =
  Array.map
    (fun (p : Ir.production) ->
      p.Ir.p_lhs :: Option.to_list p.Ir.p_limb
      |> List.concat_map (fun sym ->
             List.filter_map
               (fun (a : Ir.attr) ->
                 if a.Ir.a_kind = Ir.Intrinsic then None else Some a.Ir.a_id)
               (Ir.attrs_of_sym ir sym))
      |> Array.of_list)
    ir.Ir.prods

(* Forget the nodes the merge threw away: their stored instances and
   their parent links. What remains is exactly the merged tree's. *)
let drop st (discarded : Tree.t list) =
  List.iter
    (fun (n : Tree.t) ->
      Hashtbl.remove st.st_parents n.Tree.id;
      if n.Tree.prod <> Node.leaf_prod then
        Array.iter
          (fun attr -> Attr_versions.remove st.st_versions ~node:n.Tree.id ~attr)
          st.st_cells.(n.Tree.prod))
    discarded

(* The fingerprint memo keeps every node it has interned, incoming
   parses included. When it has outgrown the live tree, re-intern the
   live tree alone. *)
let compact metrics st ~tree_size =
  if Fingerprint.memo_size st.st_fp > (3 * tree_size) + 1024 then begin
    let fp = Fingerprint.create () in
    ignore (Fingerprint.cons fp st.st_tree);
    st.st_fp <- fp;
    Metrics.incr metrics "incremental.compactions"
  end

let validate_root (ir : Ir.t) (tree : Tree.t) =
  if
    tree.Tree.prod = Node.leaf_prod
    || ir.Ir.prods.(tree.Tree.prod).Ir.p_lhs <> ir.Ir.root
  then invalid_arg "Incr.update: tree is not rooted at the root symbol"

(* Full evaluation of [tree] into a fresh state: every interior node is
   a seed, so the versioned store comes out complete. *)
let build_fresh ~tracer ~(ir : Ir.t) ~tree =
  let fp = Fingerprint.create () in
  let tree_size = Fingerprint.size fp tree in
  let parents = Hashtbl.create (max 64 tree_size) in
  Tree.iter_postfix_ltr (link_children parents) tree;
  let versions = Attr_versions.create () in
  let index = Propagate.dep_index ir in
  let outcome =
    Propagate.run ~ir ~index ~versions ~parents ~tracer
      ~seeds:(interior_nodes tree)
      ~max_fired:(firing_budget ir tree_size)
  in
  let st =
    {
      st_ir = ir;
      st_fp = fp;
      st_tree = tree;
      st_versions = versions;
      st_parents = parents;
      st_index = index;
      st_cells = cells_per_prod ir;
    }
  in
  (st, outcome)

let update ?state config ~(plan : Plan.t) ~engine_options ~tree =
  let ir = plan.Plan.ir in
  validate_root ir tree;
  let metrics = Metrics.ambient () in
  let tracer = Trace.ambient () in
  Metrics.incr metrics "incremental.updates";
  let publish_stats (st : Tree_diff.stats) =
    Metrics.incr metrics ~by:st.Tree_diff.reused_nodes "incremental.reused_nodes";
    Metrics.incr metrics ~by:st.Tree_diff.fresh_nodes "incremental.fresh_nodes";
    Metrics.set metrics "incremental.reuse_ratio" (1.0 -. st.Tree_diff.churn)
  in
  let full_engine () = (Engine.run ~options:engine_options plan tree).Engine.outputs in
  let fallback ~churn reason =
    Metrics.incr metrics "incremental.fallbacks";
    Trace.span tracer ~cat:"incremental" "incremental.fallback" (fun () ->
        let outputs = full_engine () in
        ( {
            outputs;
            mode = Fallback { reason; churn };
            tree_size = Tree.size tree;
          },
          None ))
  in
  Trace.span tracer ~cat:"incremental" "incremental.update" (fun () ->
      match state with
      | Some st when st.st_ir == ir -> (
          let merged, seeds, discarded, dstats =
            Trace.span tracer ~cat:"incremental" "incremental.diff" (fun () ->
                Tree_diff.merge st.st_fp ~prev:st.st_tree ~next:tree)
          in
          publish_stats dstats;
          if dstats.Tree_diff.churn > config.threshold then
            (* The edit rewrote most of the tree: propagation would be a
               slow full evaluation. *)
            fallback ~churn:dstats.Tree_diff.churn "churn above threshold"
          else
            try
              Metrics.incr metrics "incremental.hits";
              st.st_tree <- merged;
              drop st discarded;
              List.iter (link_children st.st_parents) seeds;
              let tree_size = dstats.Tree_diff.next_nodes in
              let outcome =
                Propagate.run ~ir ~index:st.st_index ~versions:st.st_versions
                  ~parents:st.st_parents ~tracer ~seeds
                  ~max_fired:(firing_budget ir tree_size)
              in
              Metrics.incr metrics ~by:outcome.Propagate.fired
                "incremental.propagated_rules";
              Metrics.incr metrics ~by:outcome.Propagate.cache_hits
                "incremental.cache_hits";
              Metrics.observe metrics "incremental.waves"
                (float_of_int outcome.Propagate.waves);
              let outputs = outputs_of ir st.st_versions st.st_parents merged in
              compact metrics st ~tree_size;
              ( {
                  outputs;
                  mode =
                    Incremental
                      {
                        reused = dstats.Tree_diff.reused_nodes;
                        fresh = dstats.Tree_diff.fresh_nodes;
                        fired = outcome.Propagate.fired;
                        waves = outcome.Propagate.waves;
                        changed = outcome.Propagate.changed;
                      };
                  tree_size;
                },
                Some st )
            with Propagate.Stuck reason -> fallback ~churn:0.0 reason)
      | Some _ | None ->
          Metrics.incr metrics "incremental.fresh";
          let st, outcome = build_fresh ~tracer ~ir ~tree in
          let outputs = outputs_of ir st.st_versions st.st_parents tree in
          ( {
              outputs;
              mode = Fresh { fired = outcome.Propagate.fired };
              tree_size = Tree.size tree;
            },
            Some st ))
