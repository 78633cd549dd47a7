(* Tests for the alternating-pass evaluability analysis (overlay 4). *)
open Linguist

(* The round-robin fixpoint the worklist replaced, kept as the oracle the
   worklist is compared against: every round re-schedules every
   (production, pass) with hash tables until a round changes nothing. *)
module Reference = struct
  type schedule_failure = { sf_rule : int; sf_needs_pass : int; sf_reason : string }

  (* Availability of a dependency within (prod, pass, dir); [local_time] maps a
     locally-defined same-pass attribute reference to its defining rule. *)
  type avail =
    | At of int  (** fixed time point *)
    | After_rule of int  (** once local rule (id) has run *)
    | Not_before_pass of int  (** dependency computed only in a later pass *)

  let infinity_time = max_int / 2

  let schedule_production (ir : Ir.t) ~passes ~(prod : Ir.production) ~pass ~dir =
    let n = Array.length prod.p_rhs in
    let order = Pass_assign.child_order dir ~nchildren:n in
    (* order-index (1-based) of child i *)
    let oi = Array.make n 0 in
    Array.iteri (fun pos i -> oi.(i) <- pos + 1) order;
    let t_read i = (3 * oi.(i)) - 2 in
    let t_deadline_inh i = (3 * oi.(i)) - 1 in
    let t_post i = 3 * oi.(i) in
    let t_end = (3 * n) + 1 in
    (* Which local rule defines each aref (same-pass definitions only). *)
    let local_rules =
      List.filter
        (fun rid ->
          let r = ir.rules.(rid) in
          List.exists (fun t -> passes.(t.Ir.attr) = pass) (Array.to_list r.Ir.r_targets))
        prod.p_rules
    in
    let definer : (Ir.aref, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun rid ->
        List.iter
          (fun t -> Hashtbl.replace definer t rid)
          (Array.to_list ir.rules.(rid).Ir.r_targets))
      prod.p_rules;
    let avail_of (d : Ir.aref) =
      let a = ir.attrs.(d.attr) in
      let pb = passes.(d.attr) in
      match (d.occ, a.a_kind) with
      | Ir.Lhs, Ir.Inherited ->
          if pb <= pass then At 0 else Not_before_pass pb
      | Ir.Lhs, Ir.Synthesized | Ir.Limb_occ, Ir.Limb_attr ->
          if pb < pass then At 0
          else if pb = pass then
            match Hashtbl.find_opt definer d with
            | Some rid -> After_rule rid
            | None -> At 0 (* undefined: checker already complained *)
          else Not_before_pass pb
      | Ir.Lhs, (Ir.Intrinsic | Ir.Limb_attr)
      | Ir.Limb_occ, (Ir.Inherited | Ir.Synthesized | Ir.Intrinsic) ->
          At 0 (* impossible shapes; be permissive *)
      | Ir.Rhs i, Ir.Intrinsic -> At (t_read i)
      | Ir.Rhs i, Ir.Inherited ->
          if pb < pass then At (t_read i)
          else if pb = pass then
            match Hashtbl.find_opt definer d with
            | Some rid -> After_rule rid
            | None -> At (t_read i)
          else Not_before_pass pb
      | Ir.Rhs i, Ir.Synthesized ->
          if pb < pass then At (t_read i)
          else if pb = pass then At (t_post i)
          else Not_before_pass pb
      | Ir.Rhs _, Ir.Limb_attr -> At 0 (* impossible *)
    in
    (* Detect cycles among local same-pass rules (truly circular
       definitions) with a DFS over the rule-to-rule edges. *)
    let local_set = Hashtbl.create 16 in
    List.iter (fun rid -> Hashtbl.replace local_set rid ()) local_rules;
    let rule_edges rid =
      List.filter_map
        (fun d ->
          match avail_of d with
          | After_rule dep when Hashtbl.mem local_set dep -> Some dep
          | After_rule _ | At _ | Not_before_pass _ -> None)
        (Array.to_list ir.rules.(rid).Ir.r_deps)
    in
    let cyclic = Hashtbl.create 4 in
    let color = Hashtbl.create 16 in
    let rec dfs path rid =
      match Hashtbl.find_opt color rid with
      | Some `Done -> ()
      | Some `Active ->
          (* Everything on the path from rid back to itself is cyclic. *)
          let rec mark = function
            | [] -> ()
            | x :: rest ->
                Hashtbl.replace cyclic x ();
                if x <> rid then mark rest
          in
          mark path
      | None ->
          Hashtbl.replace color rid `Active;
          List.iter (dfs (rid :: path)) (rule_edges rid);
          Hashtbl.replace color rid `Done
    in
    List.iter (fun rid -> dfs [ rid ] rid) local_rules;
    (* Longest-path relaxation over local rules; cyclic rules pinned at
       infinity so their consumers fail too. *)
    let time : (int, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun rid ->
        Hashtbl.replace time rid
          (if Hashtbl.mem cyclic rid then infinity_time else 0))
      local_rules;
    let needs : (int, int * string) Hashtbl.t = Hashtbl.create 4 in
    let rule_floor rid =
      let r = ir.rules.(rid) in
      (* A target in a child's record can only be stored once that child's
         record has been read into memory. *)
      let target_floor =
        List.fold_left
          (fun acc (t : Ir.aref) ->
            match t.occ with
            | Ir.Rhs i -> max acc (t_read i)
            | Ir.Lhs | Ir.Limb_occ -> acc)
          0 (Array.to_list r.Ir.r_targets)
      in
      List.fold_left
        (fun acc d ->
          match avail_of d with
          | At t -> max acc t
          | After_rule dep_rid ->
              max acc (Option.value ~default:0 (Hashtbl.find_opt time dep_rid))
          | Not_before_pass pb ->
              let prev = Hashtbl.find_opt needs rid in
              let why =
                Format.asprintf "argument %a is computed only in pass %d"
                  (Ir.pp_aref ir prod) d pb
              in
              (match prev with
              | Some (p0, _) when p0 >= pb -> ()
              | _ -> Hashtbl.replace needs rid (pb, why));
              max acc infinity_time)
        target_floor (Array.to_list r.Ir.r_deps)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun rid ->
          let f = rule_floor rid in
          if f > Hashtbl.find time rid then begin
            Hashtbl.replace time rid (min f infinity_time);
            changed := true
          end)
        local_rules
    done;
    (* Deadlines. *)
    let failures = ref [] in
    List.iter
      (fun rid ->
        let r = ir.rules.(rid) in
        let t = Hashtbl.find time rid in
        let deadline =
          List.fold_left
            (fun acc tgt ->
              match (tgt.Ir.occ, ir.attrs.(tgt.Ir.attr).Ir.a_kind) with
              | Ir.Rhs i, Ir.Inherited -> min acc (t_deadline_inh i)
              | _ -> min acc t_end)
            t_end (Array.to_list r.Ir.r_targets)
        in
        let fail reason needs_pass =
          failures :=
            { sf_rule = rid; sf_needs_pass = needs_pass; sf_reason = reason }
            :: !failures
        in
        match Hashtbl.find_opt needs rid with
        | Some (pb, why) -> fail why pb
        | None ->
            if Hashtbl.mem cyclic rid then
              fail "participates in a circular chain of same-pass definitions"
                (pass + 1)
            else if t >= infinity_time then
              fail "depends on a rule blocked in this pass" (pass + 1)
            else if t > deadline then
              fail
                (Format.asprintf
                   "its arguments become available only at point %d but the \
                    target must exist at point %d of the %s pass"
                   t deadline
                   (match dir with L2r -> "left-to-right" | R2l -> "right-to-left"))
                (pass + 1))
      local_rules;
    (* Execution order: by time point, then by local dependency rank (a rule
       runs after same-time rules it reads from), then by rule id. *)
    let rank : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let rec rank_of rid =
      match Hashtbl.find_opt rank rid with
      | Some r -> r
      | None ->
          Hashtbl.replace rank rid 0 (* cycle guard; cyclic rules fail anyway *);
          let r =
            List.fold_left
              (fun acc dep -> max acc (1 + rank_of dep))
              0 (rule_edges rid)
          in
          Hashtbl.replace rank rid r;
          r
    in
    let times =
      List.map (fun rid -> (rid, Hashtbl.find time rid, rank_of rid)) local_rules
      |> List.sort (fun (r1, t1, k1) (r2, t2, k2) ->
             compare (t1, k1, r1) (t2, k2, r2))
      |> List.map (fun (rid, t, _) -> (rid, t))
    in
    (times, List.rev !failures)

  let compute ?(max_passes = 16) ~diag (ir : Ir.t) =
    let nattrs = Array.length ir.attrs in
    let passes =
      Array.init nattrs (fun i ->
          match ir.attrs.(i).Ir.a_kind with Ir.Intrinsic -> 0 | _ -> 1)
    in
    let blocked = ref [] in
    let bump attr_id k reason =
      if passes.(attr_id) < k then
        if k > max_passes then begin
          blocked := (attr_id, reason) :: !blocked;
          false
        end
        else begin
          passes.(attr_id) <- k;
          true
        end
      else false
    in
    let changed = ref true in
    let failed = ref false in
    while !changed && not !failed do
      changed := false;
      Array.iter
        (fun (prod : Ir.production) ->
          (* Unify passes across a rule's targets. *)
          List.iter
            (fun rid ->
              let r = ir.rules.(rid) in
              let m =
                List.fold_left (fun acc t -> max acc passes.(t.Ir.attr)) 1 (Array.to_list r.Ir.r_targets)
              in
              List.iter
                (fun t ->
                  if bump t.Ir.attr m "multi-target rule unification" then
                    changed := true)
                (Array.to_list r.Ir.r_targets))
            prod.p_rules;
          (* Feasibility per pass. *)
          let max_local_pass =
            List.fold_left
              (fun acc rid ->
                List.fold_left
                  (fun acc t -> max acc passes.(t.Ir.attr))
                  acc (Array.to_list ir.rules.(rid).Ir.r_targets))
              1 prod.p_rules
          in
          for k = 1 to min max_local_pass max_passes do
            let dir = Pass_assign.direction_of ir.strategy k in
            let _, failures = schedule_production ir ~passes ~prod ~pass:k ~dir in
            List.iter
              (fun f ->
                let r = ir.rules.(f.sf_rule) in
                List.iter
                  (fun t ->
                    if bump t.Ir.attr f.sf_needs_pass f.sf_reason then
                      changed := true
                    else if f.sf_needs_pass > max_passes then failed := true)
                  (Array.to_list r.Ir.r_targets))
              failures
          done)
        ir.prods;
      if !blocked <> [] then failed := true
    done;
    if !failed || !blocked <> [] then begin
      (* Re-derive a helpful diagnosis: report rules that still fail. *)
      let reported = Hashtbl.create 8 in
      Array.iter
        (fun (prod : Ir.production) ->
          for k = 1 to max_passes do
            let dir = Pass_assign.direction_of ir.strategy k in
            let _, failures = schedule_production ir ~passes ~prod ~pass:k ~dir in
            List.iter
              (fun f ->
                if f.sf_needs_pass > max_passes && not (Hashtbl.mem reported f.sf_rule)
                then begin
                  Hashtbl.add reported f.sf_rule ();
                  let r = ir.rules.(f.sf_rule) in
                  Lg_support.Diag.error diag (Ir.rule_span ir r)
                    "not evaluable in %d alternating passes: semantic function %a: %s"
                    max_passes (Ir.pp_rule ir) r f.sf_reason
                end)
              failures
          done)
        ir.prods;
      if Hashtbl.length reported = 0 then
        Lg_support.Diag.error diag Lg_support.Loc.dummy
          "grammar is not evaluable in %d alternating passes" max_passes;
      None
    end
    else begin
      let n_passes = Array.fold_left max 1 passes in
      Some { Pass_assign.passes; n_passes; strategy = ir.strategy }
    end
end

let passes_of ?(max_passes = 16) src =
  let ir = Fixtures.ir_of_source src in
  (ir, fst (Pass_assign.compute_exn ~max_passes ir))

let pass_of ir pr sym attr =
  let sym_id =
    Array.to_list ir.Ir.symbols
    |> List.find (fun (s : Ir.symbol) -> String.equal s.s_name sym)
    |> fun s -> s.Ir.s_id
  in
  match Ir.find_attr ir ~sym:sym_id ~name:attr with
  | Some a -> pr.Pass_assign.passes.(a.Ir.a_id)
  | None -> Alcotest.failf "no attribute %s.%s" sym attr

let test_directions () =
  Alcotest.(check bool) "bottom_up pass 1 is R2L" true
    (Pass_assign.direction_of Ag_ast.Bottom_up 1 = Pass_assign.R2l);
  Alcotest.(check bool) "bottom_up pass 2 is L2R" true
    (Pass_assign.direction_of Ag_ast.Bottom_up 2 = Pass_assign.L2r);
  Alcotest.(check bool) "recursive_descent pass 1 is L2R" true
    (Pass_assign.direction_of Ag_ast.Recursive_descent 1 = Pass_assign.L2r);
  Alcotest.(check bool) "recursive_descent pass 4 is R2L" true
    (Pass_assign.direction_of Ag_ast.Recursive_descent 4 = Pass_assign.R2l)

let test_sum_grammar_one_pass () =
  let _, pr = passes_of Fixtures.sum_grammar in
  Alcotest.(check int) "one pass" 1 pr.Pass_assign.n_passes

let test_knuth_two_passes () =
  let ir, pr = passes_of Lg_languages.Knuth_binary.ag_source in
  Alcotest.(check int) "two passes" 2 pr.Pass_assign.n_passes;
  Alcotest.(check int) "LEN in pass 1" 1 (pass_of ir pr "list" "LEN");
  Alcotest.(check int) "SCALE in pass 2" 2 (pass_of ir pr "list" "SCALE");
  Alcotest.(check int) "VAL in pass 2" 2 (pass_of ir pr "list" "VAL");
  Alcotest.(check int) "intrinsic in pass 0" 0 (pass_of ir pr "BIT" "BVAL")

(* A left-to-right chain: each item's IN comes from its left sibling's
   OUT. One pass under recursive_descent, two under bottom_up. *)
let chain_grammar strategy =
  Printf.sprintf
    {|
grammar Chain;
root top;
strategy %s;
terminals K has intrinsic V : int; end
nonterminals
  top has syn TOTAL : int;
  seq has inh ACC : int, syn OUT : int;
end
limbs TopL; ConsL; OneL; end
productions
  top ::= seq -> TopL :
    seq.ACC = 0,
    top.TOTAL = seq.OUT;
  seq0 ::= seq1 K -> ConsL :
    seq1.ACC = seq0.ACC,
    seq0.OUT = seq1.OUT + K.V;
  seq ::= K -> OneL :
    seq.OUT = seq.ACC + K.V;
end
|}
    strategy

(* A right-to-left chain forces the opposite. *)
let rchain_grammar strategy =
  Printf.sprintf
    {|
grammar RChain;
root top;
strategy %s;
terminals K has intrinsic V : int; end
nonterminals
  top has syn TOTAL : int;
  seq has inh FROMRIGHT : int, syn LEFTMOST : int;
end
limbs TopL; ConsL; OneL; end
productions
  top ::= seq -> TopL :
    seq.FROMRIGHT = 0,
    top.TOTAL = seq.LEFTMOST;
  seq0 ::= K seq1 -> ConsL :
    seq1.FROMRIGHT = seq0.FROMRIGHT,
    seq0.LEFTMOST = seq1.LEFTMOST + K.V;
  seq ::= K -> OneL :
    seq.LEFTMOST = seq.FROMRIGHT + K.V;
end
|}
    strategy

let test_direction_sensitivity () =
  (* The chain grammars are symmetric; only sibling-to-sibling flow is
     direction sensitive. Build one that needs it: *)
  let sibling strategy =
    Printf.sprintf
      {|
grammar Sib;
root top;
strategy %s;
terminals K has intrinsic V : int; end
nonterminals
  top has syn TOTAL : int;
  item has inh IN : int, syn OUT : int;
end
limbs TopL; PairL; OneL; end
productions
  top ::= item0 item1 -> TopL :
    item0.IN = 0,
    item1.IN = item0.OUT,
    top.TOTAL = item1.OUT;
  item ::= K -> OneL :
    item.OUT = item.IN + K.V;
end
|}
      strategy
  in
  let _, pr_rd = passes_of (sibling "recursive_descent") in
  Alcotest.(check int) "L2R flow: 1 pass under recursive_descent" 1
    pr_rd.Pass_assign.n_passes;
  let _, pr_bu = passes_of (sibling "bottom_up") in
  Alcotest.(check int) "L2R flow: 2 passes under bottom_up" 2
    pr_bu.Pass_assign.n_passes;
  (* And the mirror image. *)
  let sibling_r strategy =
    Printf.sprintf
      {|
grammar SibR;
root top;
strategy %s;
terminals K has intrinsic V : int; end
nonterminals
  top has syn TOTAL : int;
  item has inh IN : int, syn OUT : int;
end
limbs TopL; OneL; end
productions
  top ::= item0 item1 -> TopL :
    item1.IN = 0,
    item0.IN = item1.OUT,
    top.TOTAL = item0.OUT;
  item ::= K -> OneL :
    item.OUT = item.IN + K.V;
end
|}
      strategy
  in
  let _, pr_rd = passes_of (sibling_r "recursive_descent") in
  Alcotest.(check int) "R2L flow: 2 passes under recursive_descent" 2
    pr_rd.Pass_assign.n_passes;
  let _, pr_bu = passes_of (sibling_r "bottom_up") in
  Alcotest.(check int) "R2L flow: 1 pass under bottom_up" 1
    pr_bu.Pass_assign.n_passes;
  ignore (chain_grammar, rchain_grammar)

(* The paper's relaxed in-pass ordering (SIII, second optimization):
   "there is nothing to prevent us from evaluating a synthesized
   attribute-instance of the left-hand-side ... before visiting some
   right-hand-side sub-APT". Here top.S is computable after visiting [a]
   and feeds [b]'s inherited attribute: one pass under the relaxed rule,
   impossible under the strict paradigm (synthesized only at the end). *)
let test_relaxed_ordering_beats_strict_paradigm () =
  let src =
    {|
grammar Relax;
root top;
strategy recursive_descent;
terminals K has intrinsic V : int; end
nonterminals
  top has syn S : int, syn OUT2 : int;
  a has syn OUT : int;
  b has inh IN : int, syn OUT : int;
end
limbs TopL; AL; BL; end
productions
  top ::= a b -> TopL :
    top.S = a.OUT + 1,
    b.IN = top.S,
    top.OUT2 = b.OUT;
  a ::= K -> AL :
    a.OUT = K.V;
  b ::= K -> BL :
    b.OUT = b.IN + K.V;
end
|}
  in
  let ir, pr = passes_of src in
  Alcotest.(check int) "one pass suffices" 1 pr.Pass_assign.n_passes;
  (* and the schedule really places the S rule before b's visit *)
  let plan = Driver.plan_of_ir ir in
  let top_plan = plan.Plan.pass_plans.(0).Plan.pl_prods.(0) in
  let rec check_order seen_s = function
    | [] -> Alcotest.fail "no visit of b found"
    | Plan.Eval { targets; _ } :: rest ->
        let defines_s =
          Array.exists
            (function
              | Plan.Lnode (Ir.Lhs, 0) -> true
              | _ -> false)
            targets
        in
        check_order (seen_s || defines_s) rest
    | Plan.Visit_child 1 :: _ ->
        Alcotest.(check bool) "top.S evaluated before visiting b" true seen_s
    | _ :: rest -> check_order seen_s rest
  in
  check_order false (Array.to_list top_plan.Plan.pp_actions);
  (* semantics confirmed against the oracle *)
  let k_sym =
    (Array.to_list ir.Ir.symbols
    |> List.find (fun (s : Ir.symbol) -> s.Ir.s_name = "K"))
      .Ir.s_id
  in
  let leaf v = Lg_apt.Tree.leaf ~sym:k_sym ~attrs:[| Lg_support.Value.Int v |] in
  let node prod children =
    Lg_apt.Tree.interior ~prod ~sym:ir.Ir.prods.(prod).Ir.p_lhs ~children
  in
  let tree = node 0 [ node 1 [ leaf 10 ]; node 2 [ leaf 5 ] ] in
  let engine, oracle = Fixtures.run_both plan tree in
  List.iter2
    (fun (n, v1) (_, v2) -> Alcotest.check Fixtures.check_value n v2 v1)
    engine.Engine.outputs oracle.Demand.outputs;
  Alcotest.check Fixtures.check_value "OUT2 = (10+1)+5" (Lg_support.Value.Int 16)
    (List.assoc "OUT2" engine.Engine.outputs)

(* Zigzag: attribute A1 flows left to right, A2 needs A1 and flows right to
   left, A3 needs A2 and flows left to right... forces one pass each. *)
let zigzag depth =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "grammar Zig;\nroot top;\nstrategy recursive_descent;\nterminals K has intrinsic V : int; end\n";
  Buffer.add_string buf "nonterminals\n  top has syn TOTAL : int;\n  item has ";
  let attrs =
    List.init depth (fun i ->
        Printf.sprintf "inh IN%d : int, syn OUT%d : int" i i)
  in
  Buffer.add_string buf (String.concat ", " attrs);
  Buffer.add_string buf ";\nend\nlimbs TopL; OneL; end\nproductions\n";
  (* top ::= item0 item1 *)
  Buffer.add_string buf "  top ::= item0 item1 -> TopL :\n";
  let rules = ref [] in
  for i = 0 to depth - 1 do
    if i = 0 then begin
      rules := "item0.IN0 = 0" :: !rules;
      rules := "item1.IN0 = item0.OUT0" :: !rules
    end
    else if i mod 2 = 1 then begin
      (* right-to-left level, seeded by the previous level's output *)
      rules := Printf.sprintf "item1.IN%d = item1.OUT%d" i (i - 1) :: !rules;
      rules := Printf.sprintf "item0.IN%d = item1.OUT%d" i i :: !rules
    end
    else begin
      rules := Printf.sprintf "item0.IN%d = item0.OUT%d" i (i - 1) :: !rules;
      rules := Printf.sprintf "item1.IN%d = item0.OUT%d" i i :: !rules
    end
  done;
  rules := Printf.sprintf "top.TOTAL = item1.OUT%d" (depth - 1) :: !rules;
  Buffer.add_string buf ("    " ^ String.concat ",\n    " (List.rev !rules));
  Buffer.add_string buf ";\n  item ::= K -> OneL :\n    ";
  Buffer.add_string buf
    (String.concat ",\n    "
       (List.init depth (fun i ->
            Printf.sprintf "item.OUT%d = item.IN%d + K.V" i i)));
  Buffer.add_string buf ";\nend\n";
  Buffer.contents buf

let test_zigzag_passes () =
  List.iter
    (fun depth ->
      let _, pr = passes_of (zigzag depth) in
      Alcotest.(check int)
        (Printf.sprintf "zigzag depth %d" depth)
        depth pr.Pass_assign.n_passes)
    [ 1; 2; 3; 4; 5 ]

let test_not_evaluable_reported () =
  let diag = Lg_support.Diag.create () in
  let ir = Fixtures.ir_of_source (zigzag 6) in
  (match Pass_assign.compute ~max_passes:4 ~diag ir with
  | Some _ -> Alcotest.fail "expected failure with max_passes=4"
  | None -> ());
  Alcotest.(check bool) "reports blocking rule" true
    (Lg_support.Diag.error_count diag > 0)

(* x.A = y.B, y.B = x.A within one production: a genuine cycle. *)
let circular_src =
  {|
grammar Circ;
root top;
terminals K; end
nonterminals
  top has syn TOTAL : int;
  x has inh A : int, syn B : int;
end
limbs TopL; XL; end
productions
  top ::= x -> TopL :
    x.A = x.B,
    top.TOTAL = x.B;
  x ::= K -> XL :
    x.B = x.A;
end
|}

let test_circular_rejected () =
  let diag = Lg_support.Diag.create () in
  let ir = Fixtures.ir_of_source circular_src in
  (match Pass_assign.compute ~max_passes:8 ~diag ir with
  | Some _ -> Alcotest.fail "circular grammar must be rejected"
  | None -> ());
  ignore diag

(* Two limb attributes defined in terms of each other. *)
let local_cycle_src =
  {|
grammar LCyc;
root top;
terminals K; end
nonterminals top has syn TOTAL : int; end
limbs TopL has P : int, Q : int; end
productions
  top ::= K -> TopL :
    TopL.P = Q + 1,
    TopL.Q = P + 1,
    top.TOTAL = P;
end
|}

let test_local_cycle_rejected () =
  let diag = Lg_support.Diag.create () in
  let ir = Fixtures.ir_of_source local_cycle_src in
  match Pass_assign.compute ~max_passes:8 ~diag ir with
  | Some _ -> Alcotest.fail "local cycle must be rejected"
  | None -> ()

let test_multi_target_pass_unification () =
  (* One rule defines both a pass-1-able and a pass-2-needing attribute:
     both must land in pass 2. *)
  let src =
    {|
grammar MT;
root top;
strategy bottom_up;
terminals K has intrinsic V : int; end
nonterminals
  top has syn TOTAL : int;
  item has inh IN : int, syn EASY : int, syn HARD : int;
end
limbs TopL; OneL; end
productions
  top ::= item0 item1 -> TopL :
    item0.IN = 0,
    item1.IN = item0.HARD,
    top.TOTAL = item1.EASY;
  item ::= K -> OneL :
    item.EASY, item.HARD = if item.IN = 0 then K.V, K.V else K.V + 1, K.V + 1 endif;
end
|}
  in
  let ir, pr = passes_of src in
  (* HARD feeds item1.IN left-to-right; under bottom_up that is pass 2,
     and the multi-target rule drags EASY along. *)
  Alcotest.(check int) "EASY unified to 2" 2 (pass_of ir pr "item" "EASY");
  Alcotest.(check int) "HARD in pass 2" 2 (pass_of ir pr "item" "HARD")

let test_schedule_orders_child_inh_before_visit () =
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let pr = Pass_assign.compute_exn ir in
  let plan = Driver.plan_of_ir ir in
  Array.iter
    (fun (pass_plan : Plan.pass_plan) ->
      Array.iter
        (fun (pp : Plan.prod_plan) ->
          (* For every child: Read before any Eval targeting it; every Eval
             targeting child-inherited slots before its Visit; Visit before
             Write. *)
          let seen_read = Array.make 8 false in
          let seen_visit = Array.make 8 false in
          Array.iter
            (fun (action : Plan.action) ->
              match action with
              | Plan.Read_child i -> seen_read.(i) <- true
              | Plan.Visit_child i ->
                  Alcotest.(check bool) "read before visit" true seen_read.(i);
                  seen_visit.(i) <- true
              | Plan.Write_child i ->
                  Alcotest.(check bool) "read before write" true seen_read.(i)
              | Plan.Eval { targets; _ } ->
                  Array.iter
                    (fun loc ->
                      match loc with
                      | Plan.Lnode (Ir.Rhs i, _) ->
                          Alcotest.(check bool) "child read before store" true
                            seen_read.(i);
                          Alcotest.(check bool) "stored before visit" false
                            seen_visit.(i)
                      | _ -> ())
                    targets
              | Plan.Save _ | Plan.Set_global _ | Plan.Restore _ | Plan.Capture _
                ->
                  ())
            pp.Plan.pp_actions)
        pass_plan.Plan.pl_prods)
    plan.Plan.pass_plans;
  ignore pr

(* ---------- the worklist against the round-robin fixpoint ---------- *)

let rendered diag = Format.asprintf "%a" Lg_support.Diag.pp_all diag

(* The same verdict and diagnostics; on success the same pass for every
   attribute, and for every (production, pass) the schedule the fixpoint's
   final pass numbers give. *)
let check_against_reference ?(max_passes = 16) ?(rendered = rendered) name
    (ir : Ir.t) =
  let diag = Lg_support.Diag.create () and ref_diag = Lg_support.Diag.create () in
  match
    ( Pass_assign.compute ~max_passes ~diag ir,
      Reference.compute ~max_passes ~diag:ref_diag ir )
  with
  | None, None ->
      Alcotest.(check string) (name ^ ": diagnostics") (rendered ref_diag)
        (rendered diag)
  | Some (pr, schedules), Some want ->
      Alcotest.(check (array int))
        (name ^ ": pass of every attribute") want.Pass_assign.passes
        pr.Pass_assign.passes;
      let bad = ref [] in
      Array.iter
        (fun (prod : Ir.production) ->
          for k = 1 to pr.Pass_assign.n_passes do
            let times, failures =
              Reference.schedule_production ir ~passes:want.Pass_assign.passes
                ~prod ~pass:k ~dir:(Pass_assign.direction pr k)
            in
            if
              failures <> []
              || Pass_assign.schedule schedules ~prod:prod.p_id ~pass:k <> times
            then bad := Printf.sprintf "%s/%d" prod.p_tag k :: !bad
          done)
        ir.prods;
      Alcotest.(check (list string)) (name ^ ": every schedule") [] !bad
  | Some _, None | None, Some _ ->
      Alcotest.failf "%s: the worklist and the fixpoint disagree on evaluability"
        name

let language_sources =
  [
    ("desk_calc", Lg_languages.Desk_calc.ag_source);
    ("assembler", Lg_languages.Assembler.ag_source);
    ("knuth_binary", Lg_languages.Knuth_binary.ag_source);
    ("pascal", Lg_languages.Pascal_ag.ag_source);
    ("linguist", Lg_languages.Linguist_ag.ag_source);
  ]

let corpus_source profile ~seed =
  let open Lg_corpus.Corpus_gen in
  (generate ~name:"corpus" (config_of_profile profile) ~seed).g_source

let test_worklist_grammars () =
  let dir = "../grammars" in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".ag")
  |> List.iter (fun f ->
         let source =
           In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
         in
         check_against_reference f (Fixtures.ir_of_source source));
  List.iter
    (fun (name, source) -> check_against_reference name (Fixtures.ir_of_source source))
    language_sources

let test_worklist_corpus () =
  List.iter
    (fun (name, profile) ->
      List.iter
        (fun seed ->
          check_against_reference
            (Printf.sprintf "%s/%d" name seed)
            (Fixtures.ir_of_source (corpus_source profile ~seed)))
        [ 1; 2; 3 ])
    Lg_corpus.Corpus_gen.
      [ ("small", Small); ("medium", Medium); ("large", Large); ("xl", Xl) ]

let test_worklist_rejections () =
  check_against_reference ~max_passes:4 "zigzag 6 in 4 passes"
    (Fixtures.ir_of_source (zigzag 6));
  check_against_reference ~max_passes:8 "circular" (Fixtures.ir_of_source circular_src);
  check_against_reference ~max_passes:8 "local cycle"
    (Fixtures.ir_of_source local_cycle_src)

(* Random grammars from the fuzzing generator, many of them rejected:
   circular, or needing more passes than allowed. A rejection's
   diagnosis may name other semantic functions than the fixpoint's: the
   fixpoint diagnoses the pass numbers of the round that first exceeded
   the limit, the worklist the largest assignment within it. Both name
   at least one. *)
let rejected diag =
  if Lg_support.Diag.error_count diag > 0 then "rejected" else "no diagnosis"

let test_worklist_random () =
  for seed = 1 to 300 do
    let st = Random.State.make [| seed |] in
    let source = Lg_corpus.Ag_gen.generate (Random.State.int st) in
    let diag = Lg_support.Diag.create () in
    match Ag_parse.parse ~file:"<random>" ~diag source with
    | None -> ()
    | Some ast -> (
        match Check.check ~diag ast with
        | None -> ()
        | Some ir ->
            check_against_reference ~max_passes:(2 + (seed mod 4))
              ~rendered:rejected
              (Printf.sprintf "random seed %d" seed)
              ir)
  done

(* Session builds on two domains at once give what sequential builds give:
   a build's scratch state belongs to that build alone. *)
let test_builds_domain_safe () =
  let sources =
    language_sources
    @ List.map
        (fun seed ->
          ( Printf.sprintf "medium/%d" seed,
            corpus_source Lg_corpus.Corpus_gen.Medium ~seed ))
        [ 1; 2; 3 ]
  in
  let build source =
    let plan = (Driver.process_exn ~file:"<domains>" source).Driver.plan in
    ( plan.Plan.passes.Pass_assign.passes,
      Array.map
        (fun (pl : Plan.pass_plan) ->
          Array.map (fun (pp : Plan.prod_plan) -> pp.Plan.pp_actions) pl.Plan.pl_prods)
        plan.Plan.pass_plans )
  in
  let sequential = List.map (fun (_, source) -> build source) sources in
  for round = 1 to 12 do
    (* the two domains start together and walk the list in opposite
       directions *)
    let ready = Atomic.make 0 in
    let start () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done
    in
    let other =
      Domain.spawn (fun () ->
          start ();
          List.rev_map (fun (_, s) -> build s) sources)
    in
    start ();
    let mine = List.map (fun (_, s) -> build s) sources in
    let theirs = List.rev (Domain.join other) in
    List.iteri
      (fun i (name, _) ->
        let want = List.nth sequential i in
        Alcotest.(check bool)
          (Printf.sprintf "round %d, %s, this domain" round name)
          true
          (List.nth mine i = want);
        Alcotest.(check bool)
          (Printf.sprintf "round %d, %s, other domain" round name)
          true
          (List.nth theirs i = want))
      sources
  done

(* The schedules are for planning only: a plan, which a session cache
   keeps for as long as the session lives, does not hold them. *)
let test_plan_drops_schedules () =
  let build () =
    let ir = Fixtures.ir_of_source Lg_languages.Pascal_ag.ag_source in
    let pr, schedules = Pass_assign.compute_exn ir in
    let weak = Weak.create 1 in
    Weak.set weak 0 (Some schedules);
    let plan =
      Schedule.build ir pr ~schedules ~dead:(Dead.analyze ir pr)
        ~alloc:(Subsume.analyze ir)
    in
    (plan, weak)
  in
  let plan, weak = build () in
  Gc.full_major ();
  Alcotest.(check bool) "schedules collected" false (Weak.check weak 0);
  ignore (Sys.opaque_identity plan)

(* Every plan's printed form, pinned by digest: each action line of every
   production and pass (with the production's frame size and subsumed
   rules), for the grammar files with and without static subsumption, the
   five language translators and two corpus grammars. A change to how
   plans are stored must leave what they say unchanged. *)
let plan_lines name (plan : Plan.t) =
  let ir = plan.Plan.ir in
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (pl : Plan.pass_plan) ->
      Array.iter
        (fun (pp : Plan.prod_plan) ->
          let prod = ir.Ir.prods.(pp.Plan.pp_prod) in
          Printf.bprintf buf "%s pass %d %s frame %d subsumed [%s]\n" name
            pl.Plan.pl_pass prod.Ir.p_tag pp.Plan.pp_frame_size
            (String.concat " "
               (List.map string_of_int pp.Plan.pp_subsumed_rules));
          Array.iter
            (fun action ->
              Buffer.add_string buf
                (Format.asprintf "  %a\n" (Plan.pp_action ir prod) action))
            pp.Plan.pp_actions)
        pl.Plan.pl_prods)
    plan.Plan.pass_plans;
  Buffer.contents buf

let expected_plan_digests =
  [
    ("assembler.ag", "c73085fc18742f9f797ef813e26eb5d0");
    ("assembler.ag unsubsumed", "b925db19a560be8192798d83a25051ce");
    ("desk_calc.ag", "6c51a8c2ff587338d9c4a8f82ebcf8db");
    ("desk_calc.ag unsubsumed", "12675bba20586707790528badf77770b");
    ("knuth_binary.ag", "588bd0cfa77e4de0cb339a8c38a6e22c");
    ("knuth_binary.ag unsubsumed", "588bd0cfa77e4de0cb339a8c38a6e22c");
    ("linguist.ag", "e25204b155a654bb5bcf682fd1e90a99");
    ("linguist.ag unsubsumed", "6bb704410e3b3a23000479a00c2f968c");
    ("pascal_subset.ag", "82d70ad7be9ecb97ac3e7c72b6646f2e");
    ("pascal_subset.ag unsubsumed", "1f46710d17c03125cc1403bf233adcb3");
    ("desk_calc", "ddb3002f8ecc8ab682e45474b8d3694b");
    ("assembler", "58bb89f4c630509c446425fdf4b2a175");
    ("knuth_binary", "33063d576ca2676e586830faac73bcb7");
    ("pascal", "09c0774e638b047dd0bbe7b1dd979c8f");
    ("linguist", "552cde1dabcd6dd1047b9e092e63fadf");
    ("small/1", "5083ab380a815d67b06065fb82c1ab4f");
    ("medium/1", "020b1dec7b644165e5cee60dda8bcb87");
  ]

let test_plans_pinned () =
  let dir = "../grammars" in
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".ag")
  in
  let no_subsumption =
    { Driver.default_options with Driver.subsumption = false }
  in
  let pinned =
    List.concat_map
      (fun f ->
        let source =
          In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
        in
        let plan options =
          (Driver.process_exn ~options ~file:f source).Driver.plan
        in
        [
          (f, plan_lines f (plan Driver.default_options));
          (f ^ " unsubsumed", plan_lines f (plan no_subsumption));
        ])
      files
    @ List.map
        (fun (name, translator) ->
          (name, plan_lines name (Translator.plan (translator ()))))
        Lg_languages.
          [
            ("desk_calc", Desk_calc.translator);
            ("assembler", Assembler.translator);
            ("knuth_binary", Knuth_binary.translator);
            ("pascal", Pascal_ag.translator);
            ("linguist", Linguist_ag.translator);
          ]
    @ List.map
        (fun (name, profile) ->
          ( name,
            plan_lines name
              (Driver.process_exn ~file:name (corpus_source profile ~seed:1))
                .Driver.plan ))
        Lg_corpus.Corpus_gen.[ ("small/1", Small); ("medium/1", Medium) ]
  in
  let digests =
    List.map
      (fun (name, text) -> (name, Digest.to_hex (Digest.string text)))
      pinned
  in
  Alcotest.(check (list (pair string string)))
    "plan digests" expected_plan_digests digests

let () =
  Alcotest.run "passes"
    [
      ( "assignment",
        [
          Alcotest.test_case "directions" `Quick test_directions;
          Alcotest.test_case "one pass" `Quick test_sum_grammar_one_pass;
          Alcotest.test_case "knuth two passes" `Quick test_knuth_two_passes;
          Alcotest.test_case "direction sensitivity" `Quick
            test_direction_sensitivity;
          Alcotest.test_case "relaxed ordering (earlier than ordered ASE)" `Quick
            test_relaxed_ordering_beats_strict_paradigm;
          Alcotest.test_case "zigzag needs k passes" `Quick test_zigzag_passes;
          Alcotest.test_case "max passes exceeded" `Quick
            test_not_evaluable_reported;
          Alcotest.test_case "circularity rejected" `Quick test_circular_rejected;
          Alcotest.test_case "local cycle rejected" `Quick
            test_local_cycle_rejected;
          Alcotest.test_case "multi-target unification" `Quick
            test_multi_target_pass_unification;
        ] );
      ( "worklist",
        [
          Alcotest.test_case "= fixpoint: AG grammars" `Quick
            test_worklist_grammars;
          Alcotest.test_case "= fixpoint: corpus" `Quick test_worklist_corpus;
          Alcotest.test_case "= fixpoint: rejections" `Quick
            test_worklist_rejections;
          Alcotest.test_case "= fixpoint: random" `Quick test_worklist_random;
          Alcotest.test_case "two domains = sequential" `Quick
            test_builds_domain_safe;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "action ordering invariants" `Quick
            test_schedule_orders_child_inh_before_visit;
          Alcotest.test_case "plan keeps no schedules" `Quick
            test_plan_drops_schedules;
          Alcotest.test_case "plans pinned" `Quick test_plans_pinned;
        ] );
    ]
