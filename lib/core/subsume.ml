type allocation = {
  static : bool array;
  global_of : int array;
  n_globals : int;
  group_name : string array;
  group_is_syn : bool array;
}

type policy = Per_attribute | Per_group

type costs = { copy_cost : int; save_restore_cost : int }

let default_costs = { copy_cost = 4; save_restore_cost = 6 }

let group_key (a : Ir.attr) =
  match a.a_kind with
  | Ir.Inherited -> Some (a.a_name, false)
  | Ir.Synthesized -> Some (a.a_name, true)
  | Ir.Intrinsic | Ir.Limb_attr -> None

let none (ir : Ir.t) =
  let n = Array.length ir.attrs in
  {
    static = Array.make n false;
    global_of = Array.make n (-1);
    n_globals = 0;
    group_name = [||];
    group_is_syn = [||];
  }

let analyze ?(costs = default_costs) ?(policy = Per_group) (ir : Ir.t) =
  let nattrs = Array.length ir.attrs in
  (* Candidates: every attribute with a (name, class) group. A statically
     allocated attribute that is also significant keeps its record slot;
     the evaluator synchronizes the global into the record at write time,
     so later passes read it from the file. *)
  let static = Array.make nattrs false in
  Array.iter
    (fun (a : Ir.attr) ->
      match group_key a with
      | Some _ -> static.(a.a_id) <- true
      | None -> ())
    ir.attrs;
  let same_group x y =
    match (group_key ir.attrs.(x), group_key ir.attrs.(y)) with
    | Some kx, Some ky -> kx = ky
    | _ -> false
  in
  (* defs_of.(a): rules with a target instance of attribute a. *)
  let defs_of = Array.make nattrs [] in
  Array.iter
    (fun (r : Ir.rule) ->
      Array.iter
        (fun t -> defs_of.(t.Ir.attr) <- r.Ir.r_id :: defs_of.(t.Ir.attr))
        r.Ir.r_targets)
    ir.rules;
  (* A copy-rule t = s is subsumable when both ends are static members of
     the same (name, class) group. *)
  let subsumable r =
    match Ir.copy_ends ir.rules.(r) with
    | Some ({ attr = t; _ }, { attr = s; _ }) ->
        static.(t) && static.(s) && same_group t s
    | None -> false
  in
  (match policy with
  | Per_attribute ->
      (* Fixpoint eviction (the paper's n-cubed loop): an eviction can
         de-subsume a neighbour's copies, so iterate until stable. *)
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun a is_static ->
            if is_static then begin
              let subs, others = List.partition subsumable defs_of.(a) in
              let saved = List.length subs * costs.copy_cost in
              let paid = List.length others * costs.save_restore_cost in
              if paid > saved then begin
                static.(a) <- false;
                changed := true
              end
            end)
          static
      done
  | Per_group ->
      (* Decide whole (name, class) groups at once. Copies only subsume
         within a group, so no cross-group interaction: one pass. *)
      let group_members : (string * bool, int list) Hashtbl.t = Hashtbl.create 32 in
      Array.iter
        (fun (a : Ir.attr) ->
          match group_key a with
          | Some key ->
              Hashtbl.replace group_members key
                (a.a_id :: Option.value ~default:[] (Hashtbl.find_opt group_members key))
          | None -> ())
        ir.attrs;
      Hashtbl.iter
        (fun _key members ->
          let saved = ref 0 and paid = ref 0 in
          List.iter
            (fun a ->
              List.iter
                (fun r ->
                  if subsumable r then saved := !saved + costs.copy_cost
                  else paid := !paid + costs.save_restore_cost)
                defs_of.(a))
            members;
          if !paid > !saved then List.iter (fun a -> static.(a) <- false) members)
        group_members);
  (* Assign globals per (name, class) group among surviving attributes. *)
  let groups : (string * bool, int) Hashtbl.t = Hashtbl.create 16 in
  let names = ref [] and is_syn = ref [] and n_globals = ref 0 in
  let global_of = Array.make nattrs (-1) in
  Array.iter
    (fun (a : Ir.attr) ->
      if static.(a.a_id) then
        match group_key a with
        | Some ((name, syn) as key) ->
            let g =
              match Hashtbl.find_opt groups key with
              | Some g -> g
              | None ->
                  let g = !n_globals in
                  incr n_globals;
                  Hashtbl.add groups key g;
                  names := name :: !names;
                  is_syn := syn :: !is_syn;
                  g
            in
            global_of.(a.a_id) <- g
        | None -> ())
    ir.attrs;
  {
    static;
    global_of;
    n_globals = !n_globals;
    group_name = Array.of_list (List.rev !names);
    group_is_syn = Array.of_list (List.rev !is_syn);
  }

let is_subsumable_copy _ir alloc (r : Ir.rule) =
  match Ir.copy_ends r with
  | Some ({ attr = t; _ }, { attr = s; _ }) ->
      alloc.static.(t) && alloc.static.(s)
      && alloc.global_of.(t) = alloc.global_of.(s)
      && alloc.global_of.(t) >= 0
  | None -> false

type report = {
  candidates : int;
  chosen : int;
  subsumed_copy_rules : int;
  evictions : int;
}

let report (ir : Ir.t) alloc =
  let candidates =
    Array.fold_left
      (fun acc (a : Ir.attr) ->
        match group_key a with Some _ -> acc + 1 | None -> acc)
      0 ir.attrs
  in
  let chosen = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 alloc.static in
  let subsumed =
    Array.fold_left
      (fun acc r -> if is_subsumable_copy ir alloc r then acc + 1 else acc)
      0 ir.rules
  in
  {
    candidates;
    chosen;
    subsumed_copy_rules = subsumed;
    evictions = candidates - chosen;
  }
