open Lg_support
open Lg_apt
open Linguist

type config = { threshold : float }

let default_config = { threshold = 0.5 }

type state = {
  st_index : Propagate.dep_index;
      (* identity guard: state is only valid for its plan's IR *)
  mutable st_fp : Fingerprint.t;
  mutable st_tree : Tree.t;
  st_versions : Attr_versions.t;
}

let memory_cells st =
  Attr_versions.cardinal st.st_versions + Attr_versions.rows st.st_versions

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

let interior_nodes tree =
  let acc = ref [] in
  Tree.iter_postfix_ltr
    (fun n -> if n.Tree.prod <> Node.leaf_prod then acc := n :: !acc)
    tree;
  !acc

(* The last plan's index on this domain. A server's documents share
   their session's plan, so one index serves every document of it; the
   ephemeron lets the index die with the plan. *)
let last_index = Domain.DLS.new_key (fun () -> None)

let index_of (ir : Ir.t) =
  let cached = Domain.DLS.get last_index in
  match Option.bind cached (fun e -> Ephemeron.K1.query e ir) with
  | Some index -> index
  | None ->
      let index = Propagate.dep_index ir in
      Domain.DLS.set last_index (Some (Ephemeron.K1.make ir index));
      index

let outputs_of index versions tree =
  let ir = Propagate.ir index in
  List.filter_map
    (fun (a : Ir.attr) ->
      if a.Ir.a_kind = Ir.Synthesized then
        Some
          ( a.Ir.a_name,
            Value.normalize (Propagate.demand ~index ~versions tree a.Ir.a_id) )
      else None)
    (Ir.attrs_of_sym ir ir.Ir.root)

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
let build_fresh ~tracer ~index ~tree =
  let fp = Fingerprint.create () in
  let tree_size = Fingerprint.size fp tree in
  let versions = Attr_versions.create ~widths:(Propagate.widths index) in
  Attr_versions.add_tree versions tree;
  let outcome =
    Propagate.run ~index ~versions ~tracer ~seeds:(interior_nodes tree)
      ~max_fired:(Propagate.budget index ~tree_size)
  in
  ( { st_index = index; st_fp = fp; st_tree = tree; st_versions = versions },
    outcome )

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
      | Some st when Propagate.ir st.st_index == ir -> (
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
              (* Forget the nodes the merge threw away: what remains is
                 exactly the merged tree's. *)
              List.iter (Attr_versions.remove st.st_versions) discarded;
              Attr_versions.add_seeds st.st_versions seeds;
              let tree_size = dstats.Tree_diff.next_nodes in
              let outcome =
                Propagate.run ~index:st.st_index ~versions:st.st_versions
                  ~tracer ~seeds
                  ~max_fired:(Propagate.budget st.st_index ~tree_size)
              in
              Metrics.incr metrics ~by:outcome.Propagate.fired
                "incremental.propagated_rules";
              Metrics.incr metrics ~by:outcome.Propagate.cache_hits
                "incremental.cache_hits";
              Metrics.observe metrics "incremental.waves"
                (float_of_int outcome.Propagate.waves);
              let outputs = outputs_of st.st_index st.st_versions merged in
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
      | Some _ | None -> (
          Metrics.incr metrics "incremental.fresh";
          try
            let st, outcome = build_fresh ~tracer ~index:(index_of ir) ~tree in
            let outputs = outputs_of st.st_index st.st_versions tree in
            ( {
                outputs;
                mode = Fresh { fired = outcome.Propagate.fired };
                tree_size = Tree.size tree;
              },
              Some st )
          with Propagate.Stuck reason -> fallback ~churn:1.0 reason))
