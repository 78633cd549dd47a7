open Lg_support
open Lg_apt

type options = {
  backend : Aptfile.backend;
  record_trace : bool;
  interpretive : bool;
  depth_budget : int;
  node_budget : int;
}

let default_depth_budget = 100_000

let default_options =
  {
    backend = Aptfile.backend_of_store_name "mem";
    record_trace = false;
    interpretive = false;
    depth_budget = default_depth_budget;
    node_budget = 0;
  }

(* Every Io_stats counter, as span arguments; zero counters are elided to
   keep exported traces lean. *)
let io_args (io : Io_stats.t) =
  List.filter_map
    (fun (name, v) -> if v = 0 then None else Some (name, Trace.Int v))
    (Io_stats.fields io)

type pass_stats = {
  ps_pass : int;
  ps_io : Io_stats.t;
  ps_rules : int;
  ps_global_moves : int;
  ps_file_bytes : int;
}

type run_stats = {
  rules_evaluated : int;
  global_moves : int;
  max_open_nodes : int;
  max_resident_slots : int;
  total_io : Io_stats.t;
  per_pass : pass_stats list;
  apt_total_bytes : int;
}

type result = {
  outputs : (string * Value.t) list;
  stats : run_stats;
  trace : (int * Value.t list) list;
}

exception Evaluation_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Evaluation_error s)) fmt

(* Run [f]; when it raises, run [undo] (dropping any error of its own)
   and re-raise [f]'s exception. A failed run must not keep APT files or
   descriptors open. *)
let undo_on_error undo f =
  try f ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try undo () with _ -> ());
    Printexc.raise_with_backtrace e bt

(* In-memory state of an open node. *)
type node_state = { ns_prod : int; ns_sym : int; vals : Value.t array }

let leaf_attr_values (ir : Ir.t) ~sym pairs =
  let attrs = ir.symbols.(sym).Ir.s_attrs in
  let vals = Array.make (List.length attrs) Value.Bottom in
  List.iter
    (fun (name, v) ->
      let rec place i = function
        | [] ->
            fail "terminal %S has no attribute %S" ir.symbols.(sym).Ir.s_name name
        | a :: rest ->
            if String.equal ir.attrs.(a).Ir.a_name name then vals.(i) <- v
            else place (i + 1) rest
      in
      place 0 attrs)
    pairs;
  vals

(* Compress a node's in-memory values to the record written after [pass]. *)
let compress (plan : Plan.t) ns ~pass =
  let slots = Plan.record_slots plan ~sym:ns.ns_sym ~prod:ns.ns_prod ~pass in
  (* slots ascend, so the last one is the highest a record needs; only a
     hand-built leaf can fall short *)
  let n = Array.length slots in
  if n > 0 && slots.(n - 1) >= Array.length ns.vals then
    fail "Engine.compress: node of %s has too few slots (%d)"
      plan.Plan.ir.symbols.(ns.ns_sym).Ir.s_name (Array.length ns.vals);
  let attrs = Array.map (fun i -> ns.vals.(i)) slots in
  if ns.ns_prod < 0 then Node.leaf ~sym:ns.ns_sym ~attrs
  else Node.interior ~prod:ns.ns_prod ~sym:ns.ns_sym ~attrs

(* Expand a record read during [pass] (written at the end of [pass-1]). *)
let expand (plan : Plan.t) (node : Node.t) ~pass =
  let ir = plan.Plan.ir in
  let sym = node.Node.sym in
  let prod = node.Node.prod in
  if prod >= 0 && ir.prods.(prod).Ir.p_lhs <> sym then
    fail "Engine.expand: record of production %s is labelled %s, expected %s"
      ir.prods.(prod).Ir.p_tag ir.symbols.(sym).Ir.s_name
      ir.symbols.(ir.prods.(prod).Ir.p_lhs).Ir.s_name;
  let slots = Plan.record_slots plan ~sym ~prod ~pass:(pass - 1) in
  if Array.length slots <> Array.length node.Node.attrs then
    fail "Engine.expand: record carries %d values, expected %d (sym %s)"
      (Array.length node.Node.attrs) (Array.length slots)
      ir.symbols.(sym).Ir.s_name;
  let vals = Array.make (Plan.node_slots ir ~sym ~prod) Value.Bottom in
  Array.iteri (fun i slot -> vals.(slot) <- node.Node.attrs.(i)) slots;
  { ns_prod = prod; ns_sym = sym; vals }

let initial_file ?stats (plan : Plan.t) backend tree =
  let ir = plan.Plan.ir in
  let emit (t : Tree.t) =
    let vals =
      if t.Tree.prod = Node.leaf_prod then t.Tree.leaf_attrs
      else Array.make (Plan.node_slots ir ~sym:t.Tree.sym ~prod:t.Tree.prod) Value.Bottom
    in
    compress plan { ns_prod = t.Tree.prod; ns_sym = t.Tree.sym; vals } ~pass:0
  in
  let w = Aptfile.writer ?stats backend in
  undo_on_error (fun () -> Aptfile.abort_writer w) @@ fun () ->
  (match plan.Plan.passes.Pass_assign.strategy with
  | Ag_ast.Bottom_up -> Build.write_postfix_ltr w emit tree
  | Ag_ast.Recursive_descent -> Build.write_prefix_ltr w emit tree);
  Aptfile.close_writer w

(* Mutable run-wide accounting. *)
type accounting = {
  mutable rules : int;
  mutable moves : int;
  mutable open_nodes : int;
  mutable max_open : int;
  mutable resident : int;
  mutable max_resident : int;
}

let run ?(options = default_options) (plan : Plan.t) tree =
  let ir = plan.Plan.ir in
  if options.interpretive && plan.Plan.alloc.Subsume.n_globals > 0 then
    invalid_arg
      "Engine.run: interpretive mode needs a plan without static subsumption";
  let tr = Trace.ambient () in
  let trace_attrs = Trace.enabled tr && Trace.ambient_attr_counts () in
  let n_passes = plan.Plan.passes.Pass_assign.n_passes in
  let acc =
    { rules = 0; moves = 0; open_nodes = 0; max_open = 0; resident = 0; max_resident = 0 }
  in
  let trace = ref [] in
  let globals = Array.make (max 1 plan.Plan.alloc.Subsume.n_globals) Value.Bottom in
  let per_pass = ref [] in
  let total_io = Io_stats.create () in
  let max_file_bytes = ref 0 in
  let nodes_read = ref 0 in
  let run_pass input_file pass =
    let pass_plan = plan.Plan.pass_plans.(pass - 1) in
    let io = Io_stats.create () in
    Array.fill globals 0 (Array.length globals) Value.Bottom;
    let pass_rules = ref 0 and pass_moves = ref 0 in
    let attr_counts =
      if trace_attrs then Array.make (Array.length ir.prods) 0 else [||]
    in
    let reader =
      if pass = 1 && plan.Plan.passes.Pass_assign.strategy = Ag_ast.Recursive_descent
      then Aptfile.read_forward ~stats:io input_file
      else Aptfile.read_backward ~stats:io input_file
    in
    undo_on_error (fun () -> Aptfile.close_reader reader) @@ fun () ->
    let writer = Aptfile.writer ~stats:io options.backend in
    undo_on_error (fun () -> Aptfile.abort_writer writer) @@ fun () ->
    let read_node () =
      nodes_read := !nodes_read + 1;
      if options.node_budget > 0 && !nodes_read > options.node_budget then
        Lg_apt.Apt_error.raise_
          (Lg_apt.Apt_error.Resource_limit
             {
               what = "node";
               limit = options.node_budget;
               detail =
                 Printf.sprintf "pass %d read more APT records than budgeted"
                   pass;
             });
      match Aptfile.read_next reader with
      | Some node -> expand plan node ~pass
      | None -> fail "pass %d: intermediate file exhausted early" pass
    in
    (* A statically allocated attribute evaluated in this pass lives in its
       global; before a node record is written, the global's value is
       synchronized into the node's slot so later passes can read it from
       the file. *)
    let sync_statics ns =
      List.iteri
        (fun slot a ->
          let g = plan.Plan.alloc.Subsume.global_of.(a) in
          if g >= 0 && plan.Plan.passes.Pass_assign.passes.(a) = pass then
            ns.vals.(slot) <- globals.(g))
        ir.symbols.(ns.ns_sym).Ir.s_attrs
    in
    let enter ns frame_size =
      acc.open_nodes <- acc.open_nodes + 1;
      (* fail with a diagnostic while the native stack still has room,
         instead of a stack overflow deep inside [visit] *)
      if options.depth_budget > 0 && acc.open_nodes > options.depth_budget then
        Lg_apt.Apt_error.raise_
          (Lg_apt.Apt_error.Resource_limit
             {
               what = "depth";
               limit = options.depth_budget;
               detail =
                 Printf.sprintf "pass %d opened more nested nodes than budgeted"
                   pass;
             });
      acc.max_open <- max acc.max_open acc.open_nodes;
      let slots = Array.length ns.vals + frame_size in
      acc.resident <- acc.resident + slots;
      acc.max_resident <- max acc.max_resident acc.resident;
      slots
    in
    let leave slots =
      acc.open_nodes <- acc.open_nodes - 1;
      acc.resident <- acc.resident - slots
    in
    let rec visit (ns : node_state) =
      if ns.ns_prod < 0 then
        fail "pass %d: visit reached a terminal record" pass;
      let prod = ir.prods.(ns.ns_prod) in
      let pp = pass_plan.Plan.pl_prods.(ns.ns_prod) in
      let frame = Array.make pp.Plan.pp_frame_size Value.Bottom in
      let slots = enter ns pp.Plan.pp_frame_size in
      let children = Array.make (Array.length prod.Ir.p_rhs) None in
      let child i =
        match children.(i) with
        | Some c -> c
        | None -> fail "pass %d: child %d not read yet" pass i
      in
      let read_loc = function
        | Plan.Lnode (Ir.Lhs, slot) | Plan.Lnode (Ir.Limb_occ, slot) ->
            ns.vals.(slot)
        | Plan.Lnode (Ir.Rhs i, slot) -> (child i).vals.(slot)
        | Plan.Lglobal g -> globals.(g)
        | Plan.Lframe f -> frame.(f)
      in
      let write_loc loc v =
        match loc with
        | Plan.Lnode (Ir.Lhs, slot) | Plan.Lnode (Ir.Limb_occ, slot) ->
            ns.vals.(slot) <- v
        | Plan.Lnode (Ir.Rhs i, slot) -> (child i).vals.(slot) <- v
        | Plan.Lglobal g -> globals.(g) <- v
        | Plan.Lframe f -> frame.(f) <- v
      in
      (* Schulz-style interpretation: resolve every operand from the IR
         at evaluation time (per-access slot search), ignoring the
         plan's operand locations. *)
      let read_aref (aref : Ir.aref) =
        read_loc (Plan.Lnode (aref.Ir.occ, Plan.slot_in_node ir prod aref))
      in
      Array.iter
        (fun (action : Plan.action) ->
          match action with
          | Plan.Read_child i ->
              let c = read_node () in
              if c.ns_sym <> prod.Ir.p_rhs.(i) then
                fail "pass %d: production %s: child %d is %s, expected %s" pass
                  prod.Ir.p_tag i ir.symbols.(c.ns_sym).Ir.s_name
                  ir.symbols.(prod.Ir.p_rhs.(i)).Ir.s_name;
              children.(i) <- Some c
          | Plan.Visit_child i -> visit (child i)
          | Plan.Write_child i ->
              let c = child i in
              sync_statics c;
              Aptfile.write writer (compress plan c ~pass)
          | Plan.Eval { rule; operands; targets } ->
              acc.rules <- acc.rules + 1;
              incr pass_rules;
              if trace_attrs then
                attr_counts.(ns.ns_prod) <- attr_counts.(ns.ns_prod) + 1;
              let n_targets = Array.length targets in
              let r = ir.rules.(rule) in
              let values =
                if options.interpretive then
                  Sem_ops.eval_rule read_aref r.Ir.r_deps r.Ir.r_rhs ~n_targets
                else Sem_ops.eval_rule read_loc operands r.Ir.r_rhs ~n_targets
              in
              Sem_ops.assign write_loc targets values;
              if options.record_trace then trace := (rule, values) :: !trace
          | Plan.Save { global; frame = f } ->
              acc.moves <- acc.moves + 1;
              incr pass_moves;
              frame.(f) <- globals.(global)
          | Plan.Set_global { global; from } ->
              acc.moves <- acc.moves + 1;
              incr pass_moves;
              globals.(global) <- read_loc from
          | Plan.Restore { global; frame = f } ->
              acc.moves <- acc.moves + 1;
              incr pass_moves;
              globals.(global) <- frame.(f)
          | Plan.Capture { global; frame = f } ->
              acc.moves <- acc.moves + 1;
              incr pass_moves;
              frame.(f) <- globals.(global))
        pp.Plan.pp_actions;
      leave slots
    in
    let root = read_node () in
    if root.ns_prod < 0 || ir.prods.(root.ns_prod).Ir.p_lhs <> ir.root then
      fail "pass %d: stream does not start at the root symbol" pass;
    visit root;
    sync_statics root;
    Aptfile.write writer (compress plan root ~pass);
    (match Aptfile.read_next reader with
    | None -> ()
    | Some _ -> fail "pass %d: trailing records after the root" pass);
    Aptfile.close_reader reader;
    let out = Aptfile.close_writer writer in
    max_file_bytes := max !max_file_bytes (Aptfile.size_bytes out);
    if Trace.enabled tr then begin
      (* attach this pass's accounting to the open "pass k" span *)
      Trace.add_args tr
        (io_args io
        @ [
            ("rules", Trace.Int !pass_rules);
            ("global_moves", Trace.Int !pass_moves);
            ("file_bytes", Trace.Int (Aptfile.size_bytes out));
          ]);
      if trace_attrs then
        Trace.add_args tr
          (List.concat
             (List.mapi
                (fun p c ->
                  if c > 0 then
                    [ ("evals:" ^ ir.prods.(p).Ir.p_tag, Trace.Int c) ]
                  else [])
                (Array.to_list attr_counts)))
    end;
    Io_stats.add ~into:total_io io;
    per_pass :=
      {
        ps_pass = pass;
        ps_io = io;
        ps_rules = !pass_rules;
        ps_global_moves = !pass_moves;
        ps_file_bytes = Aptfile.size_bytes out;
      }
      :: !per_pass;
    out
  in
  Trace.span tr ~cat:"engine" "engine.run" @@ fun () ->
  let init_io = Io_stats.create () in
  let file0 =
    Trace.span tr ~cat:"pass" "linearize" (fun () ->
        let f = initial_file ~stats:init_io plan options.backend tree in
        Trace.add_args tr (io_args init_io);
        f)
  in
  Io_stats.add ~into:total_io init_io;
  max_file_bytes := max !max_file_bytes (Aptfile.size_bytes file0);
  let final_file =
    let rec go file pass =
      if pass > n_passes then file
      else begin
        let out =
          undo_on_error (fun () -> Aptfile.dispose file) @@ fun () ->
          Trace.span tr ~cat:"pass"
            (Printf.sprintf "pass %d" pass)
            (fun () -> run_pass file pass)
        in
        Aptfile.dispose file;
        go out (pass + 1)
      end
    in
    go file0 1
  in
  (* The root record is the last one written (postfix): read backwards. *)
  let outputs =
    undo_on_error (fun () -> Aptfile.dispose final_file) @@ fun () ->
    let r = Aptfile.read_backward ~stats:total_io final_file in
    let node =
      undo_on_error (fun () -> Aptfile.close_reader r) @@ fun () ->
      match Aptfile.read_next r with
      | Some n -> n
      | None -> fail "empty final file"
    in
    Aptfile.close_reader r;
    let ns = expand plan node ~pass:(n_passes + 1) in
    List.filter_map
      (fun (a : Ir.attr) ->
        if a.a_kind = Ir.Synthesized then
          Some (a.a_name, ns.vals.(Ir.slot_of_attr ir a.a_id))
        else None)
      (Ir.attrs_of_sym ir ir.root)
  in
  Aptfile.dispose final_file;
  Trace.counter tr "rules_evaluated" acc.rules;
  Trace.counter tr "global_moves" acc.moves;
  Trace.counter tr "apt_bytes_moved" (Io_stats.total_bytes total_io);
  (* registry view: run totals, the per-pass rule-count distribution, and
     every apt.* I/O counter from the accumulated tally *)
  let m = Lg_support.Metrics.ambient () in
  if Lg_support.Metrics.enabled m then begin
    Lg_support.Metrics.incr m "engine.runs";
    Lg_support.Metrics.incr m "engine.rules_evaluated" ~by:acc.rules;
    Lg_support.Metrics.incr m "engine.global_moves" ~by:acc.moves;
    Lg_support.Metrics.set_int m "engine.max_open_nodes" acc.max_open;
    Lg_support.Metrics.set_int m "engine.max_resident_slots" acc.max_resident;
    List.iter
      (fun ps ->
        Lg_support.Metrics.observe m "engine.pass_rules"
          (float_of_int ps.ps_rules))
      (List.rev !per_pass);
    Io_stats.publish total_io m
  end;
  {
    outputs;
    stats =
      {
        rules_evaluated = acc.rules;
        global_moves = acc.moves;
        max_open_nodes = acc.max_open;
        max_resident_slots = acc.max_resident;
        total_io;
        per_pass = List.rev !per_pass;
        apt_total_bytes = !max_file_bytes;
      };
    trace = List.rev !trace;
  }
