open Plan

exception Infeasible of string

(* Can the subtree rooted at a symbol contain a node labelled with [target]?
   The transitive closure of the phrase structure, as a membership
   predicate. Computed per strongly-connected component in reverse
   topological order — every symbol of an SCC shares one closure row, and
   all cross-SCC successors are final when a component is popped — with
   bitset rows, so large generated grammars (the corpus xl profile runs
   to thousands of symbols) stay far from the naive list-based
   fixpoint's cubic cost. *)
let below_relation (ir : Ir.t) =
  let n = Array.length ir.symbols in
  let adj = Array.make n [] in
  Array.iter
    (fun (p : Ir.production) ->
      Array.iter
        (fun s ->
          if not (List.mem s adj.(p.p_lhs)) then
            adj.(p.p_lhs) <- s :: adj.(p.p_lhs))
        p.p_rhs)
    ir.prods;
  let words = (n + 62) / 63 in
  let rows = Array.make n [||] in
  let set row s = row.(s / 63) <- row.(s / 63) lor (1 lsl (s mod 63)) in
  let get row s = row.(s / 63) land (1 lsl (s mod 63)) <> 0 in
  (* Tarjan: components complete only after everything reachable from
     them, so each popped component can union final successor rows. *)
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      adj.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> assert false
      in
      let comp = pop [] in
      let row = Array.make words 0 in
      List.iter
        (fun m ->
          List.iter
            (fun c ->
              set row c;
              (* final unless [c] is in this very component — then its
                 row is still unassigned (its closure IS [row]) *)
              if Array.length rows.(c) > 0 then
                let rc = rows.(c) in
                for i = 0 to words - 1 do
                  row.(i) <- row.(i) lor rc.(i)
                done)
            adj.(m))
        comp;
      (* members of a cyclic component reach each other, matching the
         closure the old fixpoint computed; a bit for a same-component
         child is already set above *)
      List.iter (fun m -> rows.(m) <- row) comp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  fun sym target -> target = sym || get rows.(sym) target

(* Where an attribute instance's value can be found, possibly via a chain
   of subsumed copies. *)
type wloc = Unplaced | Wloc of loc | Walias of Ir.aref

let build (ir : Ir.t) (pr : Pass_assign.result) ~schedules ~dead
    ~(alloc : Subsume.allocation) =
  let below = below_relation ir in
  (* Equal locations are one value within a plan, and so are the child
     actions of one position: a large grammar's plan holds tens of
     thousands of each. *)
  let locs = Hashtbl.create 256 in
  let shared l =
    match Hashtbl.find_opt locs l with
    | Some l -> l
    | None ->
        Hashtbl.add locs l l;
        l
  in
  let arity =
    Array.fold_left
      (fun m (p : Ir.production) -> max m (Array.length p.p_rhs))
      0 ir.prods
  in
  let reads = Array.init arity (fun i -> Read_child i)
  and visits = Array.init arity (fun i -> Visit_child i)
  and writes = Array.init arity (fun i -> Write_child i) in
  let eval rule operands targets =
    Eval
      {
        rule;
        operands = Array.map shared operands;
        targets = Array.map shared targets;
      }
  in
  let slot = Array.init (Array.length ir.attrs) (Ir.slot_of_attr ir) in
  let width = Array.map (fun (s : Ir.symbol) -> List.length s.s_attrs) ir.symbols in
  let syn_members_of_global =
    Array.make (max 1 alloc.n_globals) []
  in
  Array.iter
    (fun (a : Ir.attr) ->
      let g = alloc.global_of.(a.a_id) in
      if g >= 0 && a.a_kind = Ir.Synthesized then
        syn_members_of_global.(g) <- a.a_id :: syn_members_of_global.(g))
    ir.attrs;
  (* The synthesized globals that pass-k evaluation anywhere under [sym]
     may leave set, found once per (pass, symbol). *)
  let clobbered =
    Array.init pr.Pass_assign.n_passes (fun _ ->
        Array.make (Array.length ir.symbols) None)
  in
  let clobbers ~sym ~pass =
    match clobbered.(pass - 1).(sym) with
    | Some gs -> gs
    | None ->
        let sets g =
          alloc.group_is_syn.(g)
          && List.exists
               (fun aid ->
                 pr.Pass_assign.passes.(aid) = pass
                 && below sym ir.attrs.(aid).Ir.a_sym)
               syn_members_of_global.(g)
        in
        let gs = List.filter sets (List.init alloc.n_globals Fun.id) in
        clobbered.(pass - 1).(sym) <- Some gs;
        gs
  in
  let build_prod (prod : Ir.production) pass dir =
    let n = Array.length prod.p_rhs in
    (* A production's attribute instances, numbered the LHS's first, then
       each child's, then the limb's. *)
    let base = Array.make (n + 2) width.(prod.p_lhs) in
    base.(0) <- 0;
    Array.iteri (fun i s -> base.(i + 2) <- base.(i + 1) + width.(s)) prod.p_rhs;
    let instance (aref : Ir.aref) =
      slot.(aref.attr)
      + match aref.occ with
        | Ir.Lhs -> 0
        | Ir.Rhs i -> base.(i + 1)
        | Ir.Limb_occ -> base.(n + 1)
    in
    let node_slot (aref : Ir.aref) =
      match aref.occ with
      | Ir.Lhs | Ir.Rhs _ -> slot.(aref.attr)
      | Ir.Limb_occ -> width.(prod.p_lhs) + slot.(aref.attr)
    in
    (* the schedule is already in execution order (time, dependency rank) *)
    let pending =
      ref (Pass_assign.schedule schedules ~prod:prod.p_id ~pass)
    in
    let actions = ref [] in
    let emit a = actions := a :: !actions in
    let frame_count = ref 0 in
    let fresh_frame () =
      let f = !frame_count in
      incr frame_count;
      f
    in
    let subsumed = ref [] in
    (* alias sets per global *)
    let aliases = Array.make (max 1 alloc.n_globals) [] in
    let where =
      Array.make
        (base.(n + 1) + Option.fold ~none:0 ~some:(Array.get width) prod.p_limb)
        Unplaced
    in
    (* (global, new-value frame, target aref) to push around each child *)
    let child_setups = Array.make (max 1 (Array.length prod.p_rhs)) [] in
    (* (global, frame, lhs aref) assigned at the very end *)
    let final_sets = ref [] in
    (* deferred LHS-synthesized subsumable copies: (rule, tgt, src, g) *)
    let deferred = ref [] in
    (* An attribute lives in its global only during its own evaluation
       pass; in later passes its value is an ordinary record field. *)
    let is_static a =
      alloc.static.(a) && alloc.global_of.(a) >= 0
      && pr.Pass_assign.passes.(a) = pass
    in
    let rec loc_of (aref : Ir.aref) =
      let g = if is_static aref.Ir.attr then alloc.global_of.(aref.Ir.attr) else -1 in
      if g >= 0 && List.mem aref aliases.(g) then Lglobal g
      else
        match where.(instance aref) with
        | Wloc l -> l
        | Walias src -> loc_of src
        | Unplaced ->
            if g >= 0 then
              raise
                (Infeasible
                   (Format.asprintf
                      "production %s, pass %d: no location for static %a"
                      prod.p_tag pass (Ir.pp_aref ir prod) aref))
            else Lnode (aref.Ir.occ, node_slot aref)
    in
    let emit_rule rid =
      let r = ir.rules.(rid) in
      (* Subsumable copy handling. *)
      let as_subsumable_copy =
        match Ir.copy_ends r with
        | Some (tgt, src)
          when is_static tgt.Ir.attr && is_static src.Ir.attr
               && alloc.global_of.(tgt.Ir.attr) = alloc.global_of.(src.Ir.attr)
          ->
            Some (tgt, src, alloc.global_of.(tgt.Ir.attr))
        | _ -> None
      in
      match as_subsumable_copy with
      | Some (tgt, src, g) when tgt.Ir.occ <> Ir.Lhs ->
          (* Child-inherited copy: subsumed when the global already holds
             the source. *)
          if List.mem src aliases.(g) then begin
            subsumed := rid :: !subsumed;
            aliases.(g) <- tgt :: aliases.(g)
          end
          else begin
            (* Explicit: evaluate into a temp and bracket the visit. *)
            let ft = fresh_frame () in
            emit (eval rid [| loc_of src |] [| Lframe ft |]);
            where.(instance tgt) <- Wloc (Lframe ft);
            match tgt.Ir.occ with
            | Ir.Rhs i -> child_setups.(i) <- (g, ft, tgt) :: child_setups.(i)
            | Ir.Lhs | Ir.Limb_occ -> assert false
          end
      | Some (tgt, src, g) ->
          (* LHS-synthesized copy: decide at the end of the procedure. *)
          deferred := (rid, tgt, src, g) :: !deferred;
          where.(instance tgt) <- Walias src
      | None ->
          let operands = Array.map loc_of r.Ir.r_deps in
          let targets =
            Array.map
              (fun (tgt : Ir.aref) ->
                if is_static tgt.Ir.attr then begin
                  let g = alloc.global_of.(tgt.Ir.attr) in
                  let ft = fresh_frame () in
                  where.(instance tgt) <- Wloc (Lframe ft);
                  (match tgt.Ir.occ with
                  | Ir.Rhs i ->
                      child_setups.(i) <- (g, ft, tgt) :: child_setups.(i)
                  | Ir.Lhs -> final_sets := (g, ft, tgt) :: !final_sets
                  | Ir.Limb_occ -> assert false (* limbs are never static *));
                  Lframe ft
                end
                else Lnode (tgt.Ir.occ, node_slot tgt))
              r.Ir.r_targets
          in
          emit (eval rid operands targets)
    in
    let emit_rules_up_to t =
      let rec go () =
        match !pending with
        | (rid, rt) :: rest when rt <= t ->
            pending := rest;
            emit_rule rid;
            go ()
        | _ -> ()
      in
      go ()
    in
    (* A later-scheduled rule needs this reference — directly, or through a
       chain of deferred (aliased) copies? *)
    let rec resolves_to aref dep =
      dep = aref
      ||
      match where.(instance dep) with
      | Walias s -> resolves_to aref s
      | Wloc _ | Unplaced -> false
    in
    let needed_later aref =
      List.exists
        (fun (rid, _) ->
          Array.fold_left
            (fun needed dep -> needed || resolves_to aref dep)
            false ir.rules.(rid).Ir.r_deps)
        !pending
      || List.exists (fun (_, _, src, _) -> resolves_to aref src) !deferred
    in
    (* At entry the caller has already set every statically allocated
       inherited attribute of the LHS into its global (or left it there by
       a subsumed copy). *)
    List.iter
      (fun (a : Ir.attr) ->
        if
          a.a_kind = Ir.Inherited && is_static a.a_id
          && pr.Pass_assign.passes.(a.a_id) = pass
        then
          aliases.(alloc.global_of.(a.a_id)) <-
            [ { Ir.occ = Ir.Lhs; attr = a.a_id } ])
      (Ir.attrs_of_sym ir prod.p_lhs);
    let order = Pass_assign.child_order dir ~nchildren:n in
    emit_rules_up_to 0;
    Array.iteri
      (fun pos i ->
        let oi = pos + 1 in
        emit reads.(i);
        emit_rules_up_to ((3 * oi) - 1);
        (* push inherited globals for this child *)
        let setups =
          List.sort (fun (g1, _, _) (g2, _, _) -> compare g1 g2) child_setups.(i)
        in
        let pushed =
          List.map
            (fun (g, ft_new, tgt) ->
              let t_old = fresh_frame () in
              emit (Save { global = g; frame = t_old });
              List.iter
                (fun a -> where.(instance a) <- Wloc (Lframe t_old))
                aliases.(g);
              let old = aliases.(g) in
              emit (Set_global { global = g; from = shared (Lframe ft_new) });
              aliases.(g) <- [ tgt ];
              (g, t_old, old))
            setups
        in
        let child_sym = prod.p_rhs.(i) in
        if ir.symbols.(child_sym).Ir.s_kind = Ir.Nonterminal then
          emit visits.(i);
        (* synthesized-global effects of the visit *)
        List.iter (fun g -> aliases.(g) <- []) (clobbers ~sym:child_sym ~pass);
        List.iter
          (fun (a : Ir.attr) ->
            let g = alloc.global_of.(a.a_id) in
            if
              g >= 0
              && a.a_kind = Ir.Synthesized
              && pr.Pass_assign.passes.(a.a_id) = pass
            then begin
              let aref = { Ir.occ = Ir.Rhs i; attr = a.a_id } in
              aliases.(g) <- [ aref ];
              if needed_later aref then begin
                let ft = fresh_frame () in
                emit (Capture { global = g; frame = ft });
                where.(instance aref) <- Wloc (Lframe ft)
              end
            end)
          (Ir.attrs_of_sym ir child_sym);
        emit writes.(i);
        (* pop inherited globals, reverse order *)
        List.iter
          (fun (g, t_old, old_aliases) ->
            emit (Restore { global = g; frame = t_old });
            aliases.(g) <- old_aliases)
          (List.rev pushed);
        emit_rules_up_to (3 * oi))
      order;
    emit_rules_up_to ((3 * n) + 1);
    (* final global assignments for LHS-synthesized statics *)
    List.iter
      (fun (g, ft, tgt) ->
        emit (Set_global { global = g; from = shared (Lframe ft) });
        aliases.(g) <- [ tgt ])
      (List.rev !final_sets);
    List.iter
      (fun (rid, tgt, src, g) ->
        if List.mem src aliases.(g) then begin
          subsumed := rid :: !subsumed;
          aliases.(g) <- tgt :: aliases.(g)
        end
        else begin
          (* The global was clobbered after the source was produced: the
             copy must execute after all (an Eval, so it is traced). *)
          emit (eval rid [| loc_of src |] [| Lglobal g |]);
          aliases.(g) <- [ tgt ]
        end)
      (List.rev !deferred);
    {
      pp_prod = prod.p_id;
      pp_actions = Array.of_list (List.rev !actions);
      pp_frame_size = !frame_count;
      pp_subsumed_rules = List.rev !subsumed;
    }
  in
  let pass_plans =
    Array.init pr.Pass_assign.n_passes (fun idx ->
        let pass = idx + 1 in
        let dir = Pass_assign.direction pr pass in
        {
          pl_pass = pass;
          pl_dir = dir;
          pl_prods = Array.map (fun prod -> build_prod prod pass dir) ir.prods;
        })
  in
  let records = record_layout ir dead ~n_passes:pr.Pass_assign.n_passes in
  { ir; passes = pr; dead; alloc; pass_plans; records }
