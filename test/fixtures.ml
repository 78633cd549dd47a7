(* Shared grammar fixtures and helpers for the core test suites. This module
   is linked into every test executable; it has no top-level effects. *)
open Lg_support

let check_value = Alcotest.testable Value.pp Value.equal

let ir_of_source ?(lines = 10) src =
  Linguist.Check.check_exn ~source_lines:lines
    (Linguist.Ag_parse.parse_exn ~file:"<fixture>" src)

(* Diagnostics produced when running front end on [src]; returns messages. *)
let front_errors src =
  let diag = Diag.create () in
  (match Linguist.Ag_parse.parse ~file:"<fixture>" ~diag src with
  | Some ast -> ignore (Linguist.Check.check ~diag ast)
  | None -> ());
  List.filter_map
    (fun (d : Diag.t) ->
      match d.severity with Diag.Error -> Some d.message | _ -> None)
    (Diag.to_list diag)

let contains_substring ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.equal (String.sub haystack i n) needle || go (i + 1)) in
  n = 0 || go 0

let assert_error_mentioning src fragment =
  let errors = front_errors src in
  if not (List.exists (contains_substring ~needle:fragment) errors) then
    Alcotest.failf "expected an error mentioning %S, got: %s" fragment
      (String.concat " | " errors)

(* A one-pass "sum of leaves, spine length down" grammar used by several
   suites. *)
let sum_grammar =
  {|
grammar Sums;
root start;
strategy bottom_up;
terminals
  LEAF has intrinsic V : int;
end
nonterminals
  start has syn TOTAL : int;
  tree has syn SUM : int, inh DEPTH : int;
end
limbs
  RootLimb; ForkLimb; TipLimb;
end
productions
  start ::= tree -> RootLimb :
    tree.DEPTH = 0,
    start.TOTAL = tree.SUM;
  tree0 ::= tree1 tree2 -> ForkLimb :
    tree1.DEPTH = tree0.DEPTH + 1,
    tree2.DEPTH = tree0.DEPTH + 1,
    tree0.SUM = tree1.SUM + tree2.SUM;
  tree ::= LEAF -> TipLimb :
    tree.SUM = LEAF.V + tree.DEPTH;
end
|}

(* A grammar exercising sets, partial functions, messages, multi-target
   semantic functions and limb attributes: environments flow left to right
   (pass 2 under bottom_up), definitions accumulate. *)
let env_grammar =
  {|
grammar Envs;
root top;
strategy bottom_up;
terminals
  DEF has intrinsic NAME : name, intrinsic LINE : int;
  USE has intrinsic NAME : name, intrinsic LINE : int;
end
nonterminals
  top has syn MSGS : list, syn COUNT : int;
  items has inh ENV : env, syn ENVOUT : env, syn MSGS : list, syn COUNT : int;
  item has inh ENV : env, syn ENVOUT : env, syn MSGS : list, syn COUNT : int;
end
limbs
  TopLimb;
  ConsLimb;
  LastLimb;
  DefLimb has KNOWN : int;
  UseLimb has BOUND : int;
end
productions
  top ::= items -> TopLimb :
    items.ENV = NullPF;
  items0 ::= items1 item -> ConsLimb :
    item.ENV = items1.ENVOUT,
    items0.ENVOUT = item.ENVOUT,
    items0.MSGS = MergeMsgs(items1.MSGS, item.MSGS),
    items0.COUNT = items1.COUNT + item.COUNT;
  items ::= item -> LastLimb ;
  item ::= DEF -> DefLimb :
    DefLimb.KNOWN = EvalPF(item.ENV, DEF.NAME),
    item.ENVOUT = ConsPF(DEF.NAME, DEF.LINE, item.ENV),
    item.MSGS, item.COUNT =
      if KNOWN = Bottom then NullMsgList, 1
      else ConsMsg(DEF.LINE, Redefinition, DEF.NAME, NullMsgList), 0 endif;
  item ::= USE -> UseLimb :
    UseLimb.BOUND = EvalPF(item.ENV, USE.NAME),
    item.ENVOUT = item.ENV,
    item.COUNT = 0,
    item.MSGS = if BOUND = Bottom
                then ConsMsg(USE.LINE, Undefined, USE.NAME, NullMsgList)
                else NullMsgList endif;
end
|}

(* Random tree generation for an arbitrary IR: derive a random sentence
   from the underlying CFG and rebuild the derivation as a Tree with random
   intrinsic attribute values. *)
let random_tree (ir : Linguist.Ir.t) ~rng ~size =
  let cfg = Linguist.Ir.to_cfg ir in
  let analysis = Lg_grammar.Analysis.compute cfg in
  let _, parse = Lg_grammar.Sentence_gen.derivation cfg analysis ~rng ~size in
  (* Replay the postfix right-parse with a stack of (nonterminal, tree). *)
  let stack = ref [] in
  let leaf_for sym_ir_id =
    let attrs =
      Linguist.Ir.attrs_of_sym ir sym_ir_id
      |> List.map (fun (a : Linguist.Ir.attr) ->
             match a.a_name with
             | "NAME" -> Value.Name (rng 4)
             | "LINE" -> Value.Int (rng 100)
             | _ -> Value.Int (rng 10))
      |> Array.of_list
    in
    Lg_apt.Tree.leaf ~sym:sym_ir_id ~attrs
  in
  List.iter
    (fun pi ->
      let p = ir.Linguist.Ir.prods.(pi) in
      let rec take rhs_rev acc =
        match rhs_rev with
        | [] -> acc
        | sym :: rest -> (
            match ir.Linguist.Ir.symbols.(sym).Linguist.Ir.s_kind with
            | Linguist.Ir.Terminal -> take rest (leaf_for sym :: acc)
            | Linguist.Ir.Nonterminal | Linguist.Ir.Limb -> (
                match !stack with
                | (s, tree) :: tail when s = sym ->
                    stack := tail;
                    take rest (tree :: acc)
                | _ -> Alcotest.fail "random_tree: stack mismatch"))
      in
      let children = take (List.rev (Array.to_list p.Linguist.Ir.p_rhs)) [] in
      stack :=
        (p.Linguist.Ir.p_lhs, Lg_apt.Tree.interior ~prod:pi ~sym:p.Linguist.Ir.p_lhs ~children)
        :: !stack)
    parse;
  match !stack with
  | [ (_, tree) ] -> tree
  | _ -> Alcotest.fail "random_tree: bad replay"

let all_option_combos =
  [
    ("baseline", { Linguist.Driver.default_options with subsumption = false; dead_opt = false });
    ("dead-only", { Linguist.Driver.default_options with subsumption = false; dead_opt = true });
    ("subsume-only", { Linguist.Driver.default_options with subsumption = true; dead_opt = false });
    ("both", Linguist.Driver.default_options);
  ]

let subsumed_rules_of (plan : Linguist.Plan.t) =
  Array.to_list plan.Linguist.Plan.pass_plans
  |> List.concat_map (fun (pp : Linguist.Plan.pass_plan) ->
         Array.to_list pp.Linguist.Plan.pl_prods
         |> List.concat_map (fun (p : Linguist.Plan.prod_plan) ->
                p.Linguist.Plan.pp_subsumed_rules))

(* Engine trace vs oracle applications, restricted to non-subsumed rules,
   as order-insensitive multisets. *)
let traces_agree (plan : Linguist.Plan.t) engine_trace oracle_apps =
  let subsumed = subsumed_rules_of plan in
  let expected =
    List.filter (fun (rid, _) -> not (List.mem rid subsumed)) oracle_apps
  in
  let norm l =
    List.sort compare (List.map (fun (r, vs) -> (r, List.map Value.to_string vs)) l)
  in
  norm engine_trace = norm expected

let run_both ?(engine_options = Linguist.Engine.default_options)
    (plan : Linguist.Plan.t) tree =
  let engine =
    Linguist.Engine.run
      ~options:{ engine_options with record_trace = true }
      plan tree
  in
  let oracle, applications =
    Linguist.Demand.evaluate_traced plan.Linguist.Plan.ir tree
  in
  (engine, oracle, applications)

(* Node record payloads the record codec must refuse with a typed error:
   a value count that decodes negative (a 9-byte varint with every bit
   set), a count of 2^40 ahead of one [Bottom] byte, and an 11-byte
   varint. *)
let hostile_node_payloads =
  [
    ("value count decodes negative", "\x01\x00" ^ String.make 8 '\xff' ^ "\x7f\x00");
    ("value count 2^40 in one byte", "\x01\x00\x80\x80\x80\x80\x80\x20\x00");
    ("11-byte varint", String.make 10 '\x80' ^ "\x02\x00\x00");
  ]
