open Lg_support

type direction = L2r | R2l

let direction_of strategy k =
  let first =
    match strategy with Ag_ast.Bottom_up -> R2l | Ag_ast.Recursive_descent -> L2r
  in
  if k mod 2 = 1 then first else match first with L2r -> R2l | R2l -> L2r

type result = {
  passes : int array;
  n_passes : int;
  strategy : Ag_ast.strategy;
}

let direction r k = direction_of r.strategy k

let child_order dir ~nchildren =
  match dir with
  | L2r -> Array.init nchildren (fun i -> i)
  | R2l -> Array.init nchildren (fun i -> nchildren - 1 - i)

(* Why a rule cannot run in the pass being scheduled; rendered as text
   only when a diagnosis reports it. *)
type reason =
  | Late_argument of Ir.aref * int  (** argument computed only in that pass *)
  | Circular
  | Blocked
  | Too_late of int * int  (** available at, needed by *)

type failure = { f_rule : int; f_needs_pass : int; f_reason : reason }

let reason_text ir prod dir = function
  | Late_argument (d, pb) ->
      Format.asprintf "argument %a is computed only in pass %d"
        (Ir.pp_aref ir prod) d pb
  | Circular -> "participates in a circular chain of same-pass definitions"
  | Blocked -> "depends on a rule blocked in this pass"
  | Too_late (t, deadline) ->
      Format.asprintf
        "its arguments become available only at point %d but the target \
         must exist at point %d of the %s pass"
        t deadline
        (match dir with L2r -> "left-to-right" | R2l -> "right-to-left")

(* Availability of a dependency within (prod, pass, dir). *)
type avail =
  | At of int  (** fixed time point *)
  | After_rule of int  (** once local rule (id) has run *)
  | Not_before_pass of int  (** dependency computed only in a later pass *)

let infinity_time = max_int / 2

(* The state of one [compute] call. Per-rule arrays are indexed by rule id
   and reset for a production's rules before each schedule, so no two
   calls — possibly on different domains — ever share them. *)
type scratch = {
  ir : Ir.t;
  passes : int array;
  deps : Ir.aref array array;  (** rule -> its dependencies *)
  definer : int array array;
      (** rule -> per dependency, the rule of the same production that
          defines it, or -1 *)
  local : bool array;
  color : int array;  (** DFS: 0 unseen, 1 active, 2 done *)
  cyclic : bool array;
  floor : int array;  (** time point before which the rule cannot run *)
  edges : int list array;  (** same-pass local rules it reads from *)
  time : int array;
  rank : int array;
  needs : int array;  (** the latest pass an argument is computed in *)
  needs_dep : int array;  (** that argument's index in [deps] *)
  mutable calls : int;
}

let scratch (ir : Ir.t) passes =
  let n = Array.length ir.rules and nattrs = Array.length ir.attrs in
  let deps = Array.map (fun (r : Ir.rule) -> r.r_deps) ir.rules in
  let definer = Array.map (fun d -> Array.make (Array.length d) (-1)) deps in
  Array.iter
    (fun (prod : Ir.production) ->
      let instance (a : Ir.aref) =
        (nattrs
        * match a.occ with
          | Ir.Lhs -> 0
          | Ir.Rhs i -> i + 1
          | Ir.Limb_occ -> Array.length prod.p_rhs + 1)
        + a.attr
      in
      (* a production's last definition of an instance wins *)
      let defs = Hashtbl.create 16 in
      List.iter
        (fun rid ->
          Array.iter
            (fun t -> Hashtbl.replace defs (instance t) rid)
            ir.rules.(rid).Ir.r_targets)
        prod.p_rules;
      List.iter
        (fun rid ->
          Array.iteri
            (fun j d ->
              match Hashtbl.find_opt defs (instance d) with
              | Some def -> definer.(rid).(j) <- def
              | None -> ())
            deps.(rid))
        prod.p_rules)
    ir.prods;
  {
    ir;
    passes;
    deps;
    definer;
    local = Array.make n false;
    color = Array.make n 0;
    cyclic = Array.make n false;
    floor = Array.make n 0;
    edges = Array.make n [];
    time = Array.make n 0;
    rank = Array.make n (-1);
    needs = Array.make n 0;
    needs_dep = Array.make n (-1);
    calls = 0;
  }

let schedule_production sc ~(prod : Ir.production) ~pass ~dir =
  sc.calls <- sc.calls + 1;
  let ir = sc.ir and passes = sc.passes in
  let n = Array.length prod.p_rhs in
  let order = child_order dir ~nchildren:n in
  (* order-index (1-based) of child i *)
  let oi = Array.make n 0 in
  Array.iteri (fun pos i -> oi.(i) <- pos + 1) order;
  let t_read i = (3 * oi.(i)) - 2 in
  let t_deadline_inh i = (3 * oi.(i)) - 1 in
  let t_post i = 3 * oi.(i) in
  let t_end = (3 * n) + 1 in
  List.iter
    (fun rid ->
      sc.local.(rid) <-
        Array.fold_left
          (fun local t -> local || passes.(t.Ir.attr) = pass)
          false ir.rules.(rid).Ir.r_targets;
      sc.color.(rid) <- 0;
      sc.cyclic.(rid) <- false;
      sc.rank.(rid) <- -1)
    prod.p_rules;
  let local_rules = List.filter (fun rid -> sc.local.(rid)) prod.p_rules in
  let avail_of rid j =
    let d = sc.deps.(rid).(j) in
    let pb = passes.(d.attr) in
    (* after the local rule defining it; an undefined instance the
       checker already reported is available at [t] *)
    let defined_or t =
      let def = sc.definer.(rid).(j) in
      if def >= 0 then After_rule def else At t
    in
    match (d.occ, ir.attrs.(d.attr).a_kind) with
    | Ir.Lhs, Ir.Inherited -> if pb <= pass then At 0 else Not_before_pass pb
    | Ir.Lhs, Ir.Synthesized | Ir.Limb_occ, Ir.Limb_attr ->
        if pb < pass then At 0
        else if pb = pass then defined_or 0
        else Not_before_pass pb
    | Ir.Lhs, (Ir.Intrinsic | Ir.Limb_attr)
    | Ir.Limb_occ, (Ir.Inherited | Ir.Synthesized | Ir.Intrinsic) ->
        At 0 (* impossible shapes; be permissive *)
    | Ir.Rhs i, Ir.Intrinsic -> At (t_read i)
    | Ir.Rhs i, Ir.Inherited ->
        if pb < pass then At (t_read i)
        else if pb = pass then defined_or (t_read i)
        else Not_before_pass pb
    | Ir.Rhs i, Ir.Synthesized ->
        if pb < pass then At (t_read i)
        else if pb = pass then At (t_post i)
        else Not_before_pass pb
    | Ir.Rhs _, Ir.Limb_attr -> At 0 (* impossible *)
  in
  (* Each local rule's fixed floor, the local rules it waits for, and the
     latest pass one of its arguments is computed in. *)
  List.iter
    (fun rid ->
      (* A target in a child's record can only be stored once that child's
         record has been read into memory. *)
      let floor =
        ref
          (Array.fold_left
             (fun acc (t : Ir.aref) ->
               match t.occ with
               | Ir.Rhs i -> max acc (t_read i)
               | Ir.Lhs | Ir.Limb_occ -> acc)
             0 ir.rules.(rid).Ir.r_targets)
      in
      let edges = ref [] in
      sc.needs.(rid) <- 0;
      for j = Array.length sc.deps.(rid) - 1 downto 0 do
        match avail_of rid j with
        | At t -> floor := max !floor t
        | After_rule dep -> if sc.local.(dep) then edges := dep :: !edges
        | Not_before_pass pb ->
            floor := infinity_time;
            (* the first argument of the latest pass names the failure *)
            if pb >= sc.needs.(rid) then begin
              sc.needs.(rid) <- pb;
              sc.needs_dep.(rid) <- j
            end
      done;
      sc.floor.(rid) <- !floor;
      sc.edges.(rid) <- !edges)
    local_rules;
  (* Detect cycles among local same-pass rules (truly circular
     definitions) with a DFS over the rule-to-rule edges. *)
  let rec dfs path rid =
    match sc.color.(rid) with
    | 2 -> ()
    | 1 ->
        (* Everything on the path from rid back to itself is cyclic. *)
        let rec mark = function
          | [] -> ()
          | x :: rest ->
              sc.cyclic.(x) <- true;
              if x <> rid then mark rest
        in
        mark path
    | _ ->
        sc.color.(rid) <- 1;
        List.iter (dfs (rid :: path)) sc.edges.(rid);
        sc.color.(rid) <- 2
  in
  List.iter (fun rid -> dfs [ rid ] rid) local_rules;
  (* Longest-path relaxation over local rules; cyclic rules pinned at
     infinity so their consumers fail too. *)
  List.iter
    (fun rid -> sc.time.(rid) <- (if sc.cyclic.(rid) then infinity_time else 0))
    local_rules;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun rid ->
        let f =
          List.fold_left (fun acc dep -> max acc sc.time.(dep)) sc.floor.(rid)
            sc.edges.(rid)
        in
        if f > sc.time.(rid) then begin
          sc.time.(rid) <- min f infinity_time;
          changed := true
        end)
      local_rules
  done;
  (* Deadlines. *)
  let failures =
    List.filter_map
      (fun rid ->
        let r = ir.rules.(rid) in
        let t = sc.time.(rid) in
        let deadline =
          Array.fold_left
            (fun acc tgt ->
              match (tgt.Ir.occ, ir.attrs.(tgt.Ir.attr).Ir.a_kind) with
              | Ir.Rhs i, Ir.Inherited -> min acc (t_deadline_inh i)
              | _ -> min acc t_end)
            t_end r.Ir.r_targets
        in
        let fail reason needs_pass =
          Some { f_rule = rid; f_needs_pass = needs_pass; f_reason = reason }
        in
        if sc.needs.(rid) > 0 then
          fail
            (Late_argument (sc.deps.(rid).(sc.needs_dep.(rid)), sc.needs.(rid)))
            sc.needs.(rid)
        else if sc.cyclic.(rid) then fail Circular (pass + 1)
        else if t >= infinity_time then fail Blocked (pass + 1)
        else if t > deadline then fail (Too_late (t, deadline)) (pass + 1)
        else None)
      local_rules
  in
  (* Execution order: by time point, then by local dependency rank (a rule
     runs after same-time rules it reads from), then by rule id. *)
  let rec rank_of rid =
    if sc.rank.(rid) >= 0 then sc.rank.(rid)
    else begin
      sc.rank.(rid) <- 0 (* cycle guard; cyclic rules fail anyway *);
      let r =
        List.fold_left (fun acc dep -> max acc (1 + rank_of dep)) 0 sc.edges.(rid)
      in
      sc.rank.(rid) <- r;
      r
    end
  in
  let times =
    List.map (fun rid -> (rid, sc.time.(rid), rank_of rid)) local_rules
    |> List.sort (fun (r1, t1, k1) (r2, t2, k2) ->
           if t1 <> t2 then Int.compare t1 t2
           else if k1 <> k2 then Int.compare k1 k2
           else Int.compare r1 r2)
    |> List.map (fun (rid, t, _) -> (rid, t))
  in
  (times, failures)

type schedules = (int * int) list array array

let schedule (s : schedules) ~prod ~pass =
  let per_pass = s.(prod) in
  if pass <= Array.length per_pass then per_pass.(pass - 1) else []

let compute ?(max_passes = 16) ~diag (ir : Ir.t) =
  let nattrs = Array.length ir.attrs and nprods = Array.length ir.prods in
  let passes =
    Array.init nattrs (fun i ->
        match ir.attrs.(i).Ir.a_kind with Ir.Intrinsic -> 0 | _ -> 1)
  in
  let sc = scratch ir passes in
  (* The productions whose rules read or define each attribute: the ones
     to schedule again when its pass is raised. *)
  let touching = Array.make nattrs [] in
  Array.iter
    (fun (prod : Ir.production) ->
      let touch (a : Ir.aref) =
        match touching.(a.attr) with
        | p :: _ when p = prod.p_id -> ()
        | ps -> touching.(a.attr) <- prod.p_id :: ps
      in
      List.iter
        (fun rid ->
          Array.iter touch ir.rules.(rid).Ir.r_targets;
          Array.iter touch ir.rules.(rid).Ir.r_deps)
        prod.p_rules)
    ir.prods;
  let queue = Queue.create () and queued = Array.make nprods false in
  let enqueue p =
    if not queued.(p) then begin
      queued.(p) <- true;
      Queue.add p queue
    end
  in
  for p = 0 to nprods - 1 do
    enqueue p
  done;
  (* A bump beyond [max_passes] is not applied; the worklist still runs
     dry, so the diagnosis below reads the largest feasible assignment. *)
  let blocked = ref false in
  let bump attr_id k =
    if passes.(attr_id) < k then
      if k > max_passes then blocked := true
      else begin
        passes.(attr_id) <- k;
        List.iter enqueue touching.(attr_id)
      end
  in
  let schedules = Array.make nprods [||] in
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    let prod = ir.prods.(p) in
    (* Unify passes across a rule's targets; this visit already sees the
       result, so it does not queue the production again. *)
    List.iter
      (fun rid ->
        let targets = ir.rules.(rid).Ir.r_targets in
        let m =
          Array.fold_left (fun acc t -> max acc passes.(t.Ir.attr)) 1 targets
        in
        Array.iter (fun t -> bump t.Ir.attr m) targets)
      prod.p_rules;
    queued.(p) <- false;
    (* Feasibility per pass. *)
    let max_local_pass =
      List.fold_left
        (fun acc rid ->
          Array.fold_left
            (fun acc t -> max acc passes.(t.Ir.attr))
            acc ir.rules.(rid).Ir.r_targets)
        1 prod.p_rules
    in
    let per_pass = Array.make (min max_local_pass max_passes) [] in
    for k = 1 to Array.length per_pass do
      let dir = direction_of ir.strategy k in
      let times, failures = schedule_production sc ~prod ~pass:k ~dir in
      per_pass.(k - 1) <- times;
      List.iter
        (fun f ->
          Array.iter
            (fun t -> bump t.Ir.attr f.f_needs_pass)
            ir.rules.(f.f_rule).Ir.r_targets)
        failures
    done;
    schedules.(p) <- per_pass
  done;
  let m = Metrics.ambient () in
  let publish () =
    if Metrics.enabled m then Metrics.incr m ~by:sc.calls "evaluability.schedules"
  in
  if !blocked then begin
    (* Re-derive a helpful diagnosis: report rules that still fail. *)
    let reported = Hashtbl.create 8 in
    Array.iter
      (fun (prod : Ir.production) ->
        for k = 1 to max_passes do
          let dir = direction_of ir.strategy k in
          let _, failures = schedule_production sc ~prod ~pass:k ~dir in
          List.iter
            (fun f ->
              if f.f_needs_pass > max_passes && not (Hashtbl.mem reported f.f_rule)
              then begin
                Hashtbl.add reported f.f_rule ();
                let r = ir.rules.(f.f_rule) in
                Diag.error diag (Ir.rule_span ir r)
                  "not evaluable in %d alternating passes: semantic function %a: %s"
                  max_passes (Ir.pp_rule ir) r (reason_text ir prod dir f.f_reason)
              end)
            failures
        done)
      ir.prods;
    if Hashtbl.length reported = 0 then
      Diag.error diag Loc.dummy
        "grammar is not evaluable in %d alternating passes" max_passes;
    publish ();
    None
  end
  else begin
    publish ();
    let n_passes = Array.fold_left max 1 passes in
    Some ({ passes; n_passes; strategy = ir.strategy }, schedules)
  end

let compute_exn ?max_passes ir =
  let diag = Diag.create () in
  match compute ?max_passes ~diag ir with
  | Some r -> r
  | None -> failwith (Format.asprintf "Pass_assign:@.%a" Diag.pp_all diag)
