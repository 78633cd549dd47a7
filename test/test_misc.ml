(* Coverage sweep: corners not reached by the main suites — the rest of the
   list-processing package, corrupt-file handling, engine error paths, the
   per-attribute subsumption policy, and the pretty-printers. *)
open Lg_support

let check_value = Fixtures.check_value
let v n = Value.Int n

(* ----- remaining list-processing functions ----- *)

let test_set_algebra () =
  let s12 = Value.set_of_list [ v 1; v 2 ] in
  let s23 = Value.set_of_list [ v 2; v 3 ] in
  Alcotest.check check_value "intersect" (Value.set_of_list [ v 2 ])
    (Value.apply "Intersect" [ s12; s23 ]);
  Alcotest.check check_value "setminus" (Value.set_of_list [ v 1 ])
    (Value.apply "SetMinus" [ s12; s23 ]);
  Alcotest.check check_value "sizeof set" (v 2) (Value.apply "SizeOf" [ s12 ]);
  Alcotest.check check_value "sizeof bottom" (v 0)
    (Value.apply "SizeOf" [ Value.Bottom ])

let test_sequences () =
  let l = Value.List [ v 1; v 2; v 3 ] in
  Alcotest.check check_value "append"
    (Value.List [ v 1; v 2; v 3; v 9 ])
    (Value.apply "Append" [ l; Value.List [ v 9 ] ]);
  Alcotest.check check_value "reverse" (Value.List [ v 3; v 2; v 1 ])
    (Value.apply "Reverse" [ l ]);
  Alcotest.check check_value "lengthof" (v 3) (Value.apply "LengthOf" [ l ]);
  Alcotest.check check_value "head" (v 1) (Value.apply "Head" [ l ]);
  Alcotest.check check_value "tail" (Value.List [ v 2; v 3 ])
    (Value.apply "Tail" [ l ]);
  Alcotest.check check_value "head of empty" Value.Bottom
    (Value.apply "Head" [ Value.List [] ]);
  Alcotest.check check_value "pair" (Value.List [ v 1; v 2 ])
    (Value.apply "Pair" [ v 1; v 2 ]);
  Alcotest.check check_value "first" (v 1)
    (Value.apply "First" [ Value.List [ v 1; v 2 ] ]);
  Alcotest.check check_value "second" (v 2)
    (Value.apply "Second" [ Value.List [ v 1; v 2 ] ]);
  Alcotest.check check_value "cons2"
    (Value.List [ Value.List [ v 1; v 2 ]; v 9 ])
    (Value.apply "Cons2" [ v 1; v 2; Value.List [ v 9 ] ]);
  Alcotest.check check_value "cons3"
    (Value.List [ Value.List [ v 1; v 2; v 3 ] ])
    (Value.apply "Cons3" [ v 1; v 2; v 3; Value.List [] ])

let test_arith_helpers () =
  Alcotest.check check_value "pow2" (v 32) (Value.apply "Pow2" [ v 5 ]);
  Alcotest.check check_value "pow2 negative" (v 0) (Value.apply "Pow2" [ v (-1) ]);
  Alcotest.check check_value "mulpow2 up" (v 40) (Value.apply "MulPow2" [ v 5; v 3 ]);
  Alcotest.check check_value "mulpow2 down" (v 5)
    (Value.apply "MulPow2" [ v 40; v (-3) ]);
  Alcotest.check check_value "min" (v 2) (Value.apply "Min" [ v 5; v 2 ]);
  Alcotest.check check_value "abs" (v 7) (Value.apply "Abs" [ v (-7) ]);
  Alcotest.check check_value "incriftrue fires" (v 4)
    (Value.apply "IncrIfTrue" [ Value.Bool true; v 3 ]);
  Alcotest.check check_value "not" (Value.Bool false)
    (Value.apply "Not" [ Value.Bool true ])

let test_unionpf () =
  let pf keys = List.fold_left (fun pf (k, d) -> Value.pf_bind ~key:(Value.Str k) ~data:(v d) pf) (Value.Pf []) keys in
  let a = pf [ ("x", 1); ("y", 2) ] in
  let b = pf [ ("y", 20); ("z", 3) ] in
  let u = Value.apply "UnionPF" [ a; b ] in
  Alcotest.check check_value "left biased" (v 2)
    (Value.pf_eval u (Value.Str "y"));
  Alcotest.check check_value "right side kept" (v 3)
    (Value.pf_eval u (Value.Str "z"))

let test_wrong_arity_is_uninterpreted () =
  (* standard functions applied at the wrong arity degrade to terms *)
  match Value.apply "Union" [ v 1 ] with
  | Value.Term ("union", [ Value.Int 1 ]) -> ()
  | w -> Alcotest.failf "unexpected %a" Value.pp w

(* ----- linear set and partial-function operations ----- *)

(* The sort- and scan-based definitions the merges replaced, kept as the
   reference: on canonical inputs each merge must agree with them. *)
module Reference = struct
  let set_of_list items = Value.Set (List.sort_uniq Value.compare items)
  let set_union a b = set_of_list (Value.set_elements a @ Value.set_elements b)
  let set_add x s = set_of_list (x :: Value.set_elements s)

  let set_inter a b =
    let eb = Value.set_elements b in
    set_of_list
      (List.filter (fun x -> List.exists (Value.equal x) eb) (Value.set_elements a))

  let set_minus a b =
    let eb = Value.set_elements b in
    set_of_list
      (List.filter
         (fun x -> not (List.exists (Value.equal x) eb))
         (Value.set_elements a))

  let pf_bindings = function Value.Pf bs -> bs | _ -> []

  let pf_bind ~key ~data pf =
    let rest = List.filter (fun (k, _) -> not (Value.equal k key)) (pf_bindings pf) in
    Value.Pf
      (List.sort (fun (a, _) (b, _) -> Value.compare a b) ((key, data) :: rest))

  let pf_domain pf = set_of_list (List.map fst (pf_bindings pf))

  let unionpf a b =
    List.fold_left
      (fun pf (k, v) ->
        match Value.pf_eval pf k with
        | Value.Bottom -> pf_bind ~key:k ~data:v pf
        | _ -> pf)
      a (pf_bindings b)
end

let gen_atom =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) (int_range 0 9);
        map (fun c -> Value.Str (String.make 1 c)) (char_range 'a' 'd');
        map (fun b -> Value.Bool b) bool;
        return Value.Bottom;
      ])

let gen_element =
  QCheck.Gen.(
    frequency
      [
        (4, gen_atom);
        (1, map (fun l -> Value.List l) (list_size (int_bound 3) gen_atom));
      ])

(* canonical sets, plus the non-set values set operations also accept *)
let gen_set =
  QCheck.Gen.(
    frequency
      [
        (6, map Value.set_of_list (list_size (int_bound 8) gen_element));
        (1, return Value.Bottom);
        (1, map (fun l -> Value.List l) (list_size (int_bound 4) gen_element));
        (1, gen_atom);
      ])

(* key-sorted, key-unique bindings; data may be Bottom *)
let gen_pf =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun bs ->
              Value.Pf (List.sort_uniq (fun (a, _) (b, _) -> Value.compare a b) bs))
            (list_size (int_bound 8) (pair gen_element gen_element)) );
        (1, return Value.Bottom);
      ])

let arb2 g =
  QCheck.make
    ~print:(fun (a, b) -> Value.to_string a ^ " , " ^ Value.to_string b)
    (QCheck.Gen.pair g g)

let agree name ~reference ~merged arb =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:500 arb (fun args ->
         let r = reference args and m = merged args in
         if Value.equal r m then true
         else
           QCheck.Test.fail_reportf "reference %s, merged %s" (Value.to_string r)
             (Value.to_string m)))

let set_and_pf_properties =
  [
    agree "union" (arb2 gen_set)
      ~reference:(fun (a, b) -> Reference.set_union a b)
      ~merged:(fun (a, b) -> Value.apply "Union" [ a; b ]);
    agree "union$setof" (arb2 gen_set)
      ~reference:(fun (x, s) -> Reference.set_add x s)
      ~merged:(fun (x, s) -> Value.apply "Union$SetOf" [ x; s ]);
    agree "intersect" (arb2 gen_set)
      ~reference:(fun (a, b) -> Reference.set_inter a b)
      ~merged:(fun (a, b) -> Value.apply "Intersect" [ a; b ]);
    agree "setminus" (arb2 gen_set)
      ~reference:(fun (a, b) -> Reference.set_minus a b)
      ~merged:(fun (a, b) -> Value.apply "SetMinus" [ a; b ]);
    agree "consPF"
      (QCheck.make
         ~print:(fun (k, d, pf) ->
           String.concat " , " (List.map Value.to_string [ k; d; pf ]))
         QCheck.Gen.(triple gen_element gen_element gen_pf))
      ~reference:(fun (key, data, pf) -> Reference.pf_bind ~key ~data pf)
      ~merged:(fun (key, data, pf) -> Value.apply "ConsPF" [ key; data; pf ]);
    agree "domainof"
      (QCheck.make ~print:Value.to_string gen_pf)
      ~reference:Reference.pf_domain
      ~merged:(fun pf -> Value.apply "DomainOf" [ pf ]);
    agree "unionpf" (arb2 gen_pf)
      ~reference:(fun (a, b) -> Reference.unionpf a b)
      ~merged:(fun (a, b) -> Value.apply "UnionPF" [ a; b ]);
  ]

(* ----- catenable sequences ----- *)

(* The copying definitions of the sequence functions, over flat lists. *)
let flat_apply name args =
  let items = function Value.List l -> l | Value.Bottom -> [] | v -> [ v ] in
  match (name, args) with
  | ("Append" | "MergeMsgs"), [ a; b ] -> Value.List (items a @ items b)
  | "Cons", [ x; l ] -> Value.List (x :: items l)
  | "ConsMsg", [ _; Value.Bottom; _; rest ] -> rest
  | "ConsMsg", [ line; err; nm; rest ] ->
      Value.List (Value.Term ("msg", [ line; err; nm ]) :: items rest)
  | "Head", [ Value.List (x :: _) ] -> x
  | "Tail", [ Value.List (_ :: rest) ] -> Value.List rest
  | ("Head" | "Tail"), [ (Value.List [] | Value.Bottom) ] -> Value.Bottom
  | "LengthOf", [ l ] -> Value.Int (List.length (items l))
  | "Reverse", [ l ] -> Value.List (List.rev (items l))
  | "SizeOf", [ Value.List l ] -> Value.Int (List.length l)
  | _ ->
      (* no list structure involved: the library's answer on flat
         arguments is the reference *)
      Value.apply name args

let encoded v =
  let b = Buffer.create 64 in
  Value.encode b v;
  Buffer.contents b

let sign n = Stdlib.compare n 0

(* A pool of (value built through [Value.apply], same value built by the
   flat reference) pairs, grown by random operations on pool members. *)
let rope_differential =
  let op_gen =
    QCheck.Gen.(
      quad (int_bound 8) (int_bound 1000) (int_bound 1000) (int_bound 3))
  in
  let ops = QCheck.Gen.list_size (QCheck.Gen.int_range 1 60) op_gen in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ropes are invisible" ~count:300
       (QCheck.make
          ~print:(fun l ->
            String.concat ";"
              (List.map (fun (a, b, c, d) -> Printf.sprintf "(%d,%d,%d,%d)" a b c d) l))
          ops)
       (fun script ->
         let seed =
           [
             Value.List [];
             Value.List [ v 1 ];
             Value.List [ v 1; v 2; v 3 ];
             Value.Bottom;
             v 7;
             Value.Str "s";
           ]
         in
         let pool = ref (List.map (fun x -> (x, x)) seed) in
         let same (r, f) =
           Value.equal r f
           && Value.compare r f = 0
           && Value.compare f r = 0
           && String.equal (Value.to_string r) (Value.to_string f)
           && String.equal (encoded r) (encoded f)
           && Value.normalize r = f
         in
         List.for_all
           (fun (op, i, j, k) ->
             let a = List.nth !pool (i mod List.length !pool)
             and b = List.nth !pool (j mod List.length !pool) in
             let name, args =
               match op with
               | 0 -> ("Append", [ a; b ])
               | 1 -> ("MergeMsgs", [ a; b ])
               | 2 -> ("Cons", [ a; b ])
               | 3 ->
                   let err = if k = 0 then Value.Bottom else Value.Term ("E", []) in
                   ("ConsMsg", [ (v k, v k); (err, err); (Value.Name k, Value.Name k); b ])
               | 4 -> ("Head", [ a ])
               | 5 -> ("Tail", [ a ])
               | 6 -> ("LengthOf", [ a ])
               | 7 -> ("Reverse", [ a ])
               | _ -> ("SizeOf", [ a ])
             in
             let entry =
               ( Value.apply name (List.map fst args),
                 flat_apply name (List.map snd args) )
             in
             pool := entry :: !pool;
             same entry)
           script
         && List.for_all
              (fun (r1, f1) ->
                List.for_all
                  (fun (r2, f2) ->
                    sign (Value.compare r1 r2) = sign (Value.compare f1 f2))
                  !pool)
              !pool))

(* A left-recursive rule run a million times builds a rope a million
   nodes deep; every traversal must survive it. *)
let test_deep_rope_is_stack_safe () =
  let n = 1_000_000 in
  let one = Value.List [ v 1 ] in
  let rec chain i acc =
    if i = n then acc else chain (i + 1) (Value.apply "Append" [ acc; one ])
  in
  let a = chain 0 (Value.List []) in
  Alcotest.check check_value "length read in O(1)" (v n) (Value.apply "LengthOf" [ a ]);
  (* the two operands' nodes never line up, so both stacks go deep *)
  Alcotest.(check int) "a proper prefix is smaller" (-1)
    (Value.compare a (Value.apply "Append" [ a; Value.List [ v 1 ] ]));
  let bytes = encoded a in
  Alcotest.(check int) "encoded size" (String.length bytes) (Value.encoded_size a);
  let decoded, _ = Value.decode bytes 0 in
  Alcotest.(check int) "equal to its flat decoding" 0 (Value.compare a decoded);
  Alcotest.(check bool) "normalize flattens" true (Value.normalize a = decoded);
  Alcotest.(check int) "prints every item" n
    (String.fold_left
       (fun count c -> if c = '1' then count + 1 else count)
       0 (Value.to_string a))

let rec has_cat = function
  | Value.Cat _ -> true
  | Value.List items | Value.Set items | Value.Term (_, items) -> List.exists has_cat items
  | Value.Pf bs -> List.exists (fun (k, d) -> has_cat k || has_cat d) bs
  | Value.Bottom | Value.Int _ | Value.Bool _ | Value.Str _ | Value.Name _ -> false

let rec longest_list = function
  | Value.List items ->
      List.fold_left (fun m x -> max m (longest_list x)) (List.length items) items
  | Value.Term (_, items) | Value.Set items ->
      List.fold_left (fun m x -> max m (longest_list x)) 0 items
  | _ -> 0

(* Demand and Incr evaluate in memory, where Append builds ropes; what
   they hand out must be flat. *)
let test_evaluator_outputs_are_flat () =
  let pascal n =
    "program p;\nvar x : integer; y : integer;\nbegin\n  x := 1"
    ^ String.concat ""
        (List.init n (fun i -> Printf.sprintf ";\n  y := x + %d;\n  writeln(y)" i))
    ^ "\nend.\n"
  in
  let bad_ag =
    "grammar Bad;\nroot zz;\nnonterminals a has syn X : t, syn X : t; a; end\n\
     productions\n  a ::= mystery -> NoSuchLimb : a.X = other.Y;\nend\n"
  in
  let cases =
    [
      ("pascal", Lg_languages.Pascal_ag.translator (), pascal 12, pascal 13);
      ( "linguist",
        Lg_languages.Linguist_ag.translator (),
        Lg_languages.Linguist_ag.ag_source,
        bad_ag );
    ]
  in
  List.iter
    (fun (label, t, source, edited) ->
      let plan = Linguist.Translator.plan t in
      let ir = Linguist.Translator.ir t in
      let tree_of src =
        Option.get
          (Linguist.Translator.tree_of_source t ~file:label
             ~diag:(Diag.create ()) src)
      in
      let check what outputs =
        List.iter
          (fun (name, value) ->
            if has_cat value then
              Alcotest.failf "%s: %s output %s holds a rope" label what name)
          outputs
      in
      let tree = tree_of source in
      let oracle = Linguist.Demand.evaluate ir tree in
      check "Demand.evaluate" oracle.Linguist.Demand.outputs;
      if List.for_all (fun (_, v) -> longest_list v < 2) oracle.Linguist.Demand.outputs
      then Alcotest.failf "%s: no output is a sequence of two or more" label;
      check "Demand.instance"
        (List.map
           (fun (name, _) -> (name, Linguist.Demand.instance ir tree ~path:[] ~attr:name))
           oracle.Linguist.Demand.outputs);
      let config = Lg_incremental.Incr.default_config
      and engine_options = Linguist.Engine.default_options in
      let fresh, state = Lg_incremental.Incr.update config ~plan ~engine_options ~tree in
      check "Incr (fresh)" fresh.Lg_incremental.Incr.outputs;
      let next, _ =
        Lg_incremental.Incr.update ?state config ~plan ~engine_options
          ~tree:(tree_of edited)
      in
      check "Incr (edit)" next.Lg_incremental.Incr.outputs)
    cases

(* ----- corrupt streams ----- *)

let test_value_decode_corruption () =
  List.iter
    (fun s ->
      match Value.decode s 0 with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "decode should fail on %S" s)
    [
      "";
      "\xff";
      "\x03\x08ab";
      "\x05\x03\x01";
      "\x08\x06a";
      (* an [Int] whose varint runs to 13 bytes *)
      "\x01" ^ String.make 12 '\x80' ^ "\x02";
    ]

let test_node_decode_corruption () =
  List.iter
    (fun (label, payload) ->
      match Lg_apt.Node.decode payload with
      | exception Lg_apt.Apt_error.Error (Lg_apt.Apt_error.Corrupt_record _) -> ()
      | exception e ->
          Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: decoded" label)
    (("three values, no bytes", "\x01\x02\x03") :: Fixtures.hostile_node_payloads)

(* ----- engine error paths ----- *)

let evaluation_error_mentions needle plan tree =
  match Linguist.Engine.run plan tree with
  | exception Linguist.Engine.Evaluation_error msg ->
      if not (Fixtures.contains_substring ~needle msg) then
        Alcotest.failf "error %S does not mention %S" msg needle
  | _ -> Alcotest.failf "expected an Evaluation_error mentioning %S" needle

let test_engine_rejects_mismatched_record_layout () =
  (* A tree whose leaf carries the wrong number of intrinsic slots:
     LEAF's pass-0 record carries V, but the leaf holds no value. *)
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let plan = Linguist.Driver.plan_of_ir ir in
  let bad_leaf = Lg_apt.Tree.leaf ~sym:0 ~attrs:[||] (* LEAF declares V *) in
  let tree =
    Lg_apt.Tree.interior ~prod:0 ~sym:1
      ~children:
        [ Lg_apt.Tree.interior ~prod:2 ~sym:2 ~children:[ bad_leaf ] ]
  in
  evaluation_error_mentions "too few slots" plan tree

let test_engine_rejects_mislabelled_record () =
  (* production 0 derives [start], but its record is labelled [tree] *)
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let plan = Linguist.Driver.plan_of_ir ir in
  let leaf = Lg_apt.Tree.leaf ~sym:0 ~attrs:[| v 1 |] in
  let tree =
    Lg_apt.Tree.interior ~prod:0 ~sym:2
      ~children:[ Lg_apt.Tree.interior ~prod:2 ~sym:2 ~children:[ leaf ] ]
  in
  evaluation_error_mentions "is labelled tree, expected start" plan tree

(* ----- the record layout table against its definition ----- *)

(* Each record lists, in slot order, the node slots ([Plan.slot_in_node]
   for an interior node, the symbol's attribute index for a leaf) of the
   attributes [Dead.written] keeps for that pass. *)
let check_record_layout name (plan : Linguist.Plan.t) =
  let open Linguist in
  let ir = plan.Plan.ir in
  let kept ~pass slot attrs =
    List.filter_map
      (fun a -> if Dead.written plan.Plan.dead ~pass a then Some (slot a) else None)
      attrs
  in
  let check what expected slots =
    Alcotest.(check (list int)) (name ^ ": " ^ what) expected (Array.to_list slots)
  in
  for pass = 0 to plan.Plan.passes.Pass_assign.n_passes do
    Array.iter
      (fun (p : Ir.production) ->
        let slot occ attr = Plan.slot_in_node ir p { Ir.occ; attr } in
        let expected =
          kept ~pass (slot Ir.Lhs) ir.Ir.symbols.(p.Ir.p_lhs).Ir.s_attrs
          @
          match p.Ir.p_limb with
          | Some limb -> kept ~pass (slot Ir.Limb_occ) ir.Ir.symbols.(limb).Ir.s_attrs
          | None -> []
        in
        check
          (Printf.sprintf "pass %d production %s" pass p.Ir.p_tag)
          expected
          (Plan.record_slots plan ~sym:p.Ir.p_lhs ~prod:p.Ir.p_id ~pass))
      ir.Ir.prods;
    Array.iter
      (fun (s : Ir.symbol) ->
        check
          (Printf.sprintf "pass %d leaf %s" pass s.Ir.s_name)
          (kept ~pass (Ir.slot_of_attr ir) s.Ir.s_attrs)
          (Plan.record_slots plan ~sym:s.Ir.s_id ~prod:Lg_apt.Node.leaf_prod ~pass))
      ir.Ir.symbols
  done

let plan_of_source ?(options = Linguist.Driver.default_options) name source =
  (Linguist.Driver.process_exn ~options ~file:name source).Linguist.Driver.plan

let test_record_layout_builtin_languages () =
  List.iter
    (fun (name, source) ->
      check_record_layout name (plan_of_source name source);
      check_record_layout (name ^ " keep-all")
        (plan_of_source
           ~options:{ Linguist.Driver.default_options with dead_opt = false }
           name source))
    [
      ("assembler", Lg_languages.Assembler.ag_source);
      ("desk_calc", Lg_languages.Desk_calc.ag_source);
      ("knuth_binary", Lg_languages.Knuth_binary.ag_source);
      ("linguist", Lg_languages.Linguist_ag.ag_source);
      ("pascal", Lg_languages.Pascal_ag.ag_source);
    ]

let test_record_layout_grammar_files () =
  (* the test binary sits in _build/default/test; grammars/ is a sibling *)
  let dir =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "grammars"
  in
  let files =
    List.filter
      (fun f -> Filename.check_suffix f ".ag")
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check int) "five grammar files" 5 (List.length files);
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let source = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_record_layout f (plan_of_source f source))
    files

let test_record_layout_corpus () =
  let open Lg_corpus.Corpus_gen in
  List.iter
    (fun (profile, label) ->
      List.iter
        (fun seed ->
          let g = generate ~name:label (config_of_profile profile) ~seed in
          check_record_layout
            (Printf.sprintf "%s seed %d" label seed)
            (plan_of_source label g.g_source))
        [ 1; 2; 3 ])
    [ (Small, "small"); (Medium, "medium") ]

let test_leaf_attr_values_rejects_unknown () =
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  match Linguist.Engine.leaf_attr_values ir ~sym:0 [ ("NOPE", v 1) ] with
  | exception Linguist.Engine.Evaluation_error _ -> ()
  | _ -> Alcotest.fail "unknown intrinsic must be rejected"

(* ----- the paper's per-attribute policy end to end ----- *)

let test_per_attribute_policy_differential () =
  let ir = Fixtures.ir_of_source Lg_languages.Desk_calc.ag_source in
  let pr, schedules = Linguist.Pass_assign.compute_exn ir in
  let dead = Linguist.Dead.analyze ir pr in
  let alloc =
    Linguist.Subsume.analyze ~policy:Linguist.Subsume.Per_attribute ir
  in
  let plan = Linguist.Schedule.build ir pr ~schedules ~dead ~alloc in
  let st = Random.State.make [| 77 |] in
  let rng bound = Random.State.int st bound in
  let tree = Fixtures.random_tree ir ~rng ~size:40 in
  let engine, oracle, applications = Fixtures.run_both plan tree in
  List.iter2
    (fun (n, v1) (_, v2) -> Alcotest.check check_value n v2 v1)
    engine.Linguist.Engine.outputs oracle.Linguist.Demand.outputs;
  Alcotest.(check bool) "traces agree" true
    (Fixtures.traces_agree plan engine.Linguist.Engine.trace
       applications)

let test_policies_pick_nested_sets () =
  let ir = Fixtures.ir_of_source Lg_languages.Linguist_ag.ag_source in
  let local = Linguist.Subsume.analyze ~policy:Linguist.Subsume.Per_attribute ir in
  let global = Linguist.Subsume.analyze ~policy:Linguist.Subsume.Per_group ir in
  let count a =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a.Linguist.Subsume.static
  in
  Alcotest.(check bool) "global >= local" true (count global >= count local)

(* ----- pretty-printer smoke ----- *)

let test_pretty_printers () =
  let g =
    Lg_grammar.Cfg.make ~terminals:[ "a" ] ~nonterminals:[ "S" ] ~start:"S"
      [ ("S", [ "a" ], "tag") ]
  in
  Alcotest.(check bool) "Cfg.pp" true
    (String.length (Format.asprintf "%a" Lg_grammar.Cfg.pp g) > 0);
  let lr0 = Lg_lalr.Lr0.build g in
  Alcotest.(check bool) "Lr0.pp_state" true
    (String.length
       (Format.asprintf "%a" (Lg_lalr.Lr0.pp_state lr0) (Lg_lalr.Lr0.state lr0 0))
    > 0);
  let ir = Fixtures.ir_of_source Fixtures.sum_grammar in
  let plan = Linguist.Driver.plan_of_ir ir in
  let pp0 = plan.Linguist.Plan.pass_plans.(0).Linguist.Plan.pl_prods.(0) in
  Array.iter
    (fun action ->
      Alcotest.(check bool) "Plan.pp_action" true
        (String.length
           (Format.asprintf "%a"
              (Linguist.Plan.pp_action ir ir.Linguist.Ir.prods.(0))
              action)
        > 0))
    pp0.Linguist.Plan.pp_actions;
  (* an Eval prints its rule's expression, operators included:
     tree0.SUM = tree1.SUM + tree2.SUM *)
  let fork = ir.Linguist.Ir.prods.(1) in
  let sum =
    Option.get
      (Linguist.Ir.find_attr ir ~sym:fork.Linguist.Ir.p_lhs ~name:"SUM")
  in
  let sum_evals =
    Array.to_list plan.Linguist.Plan.pass_plans
    |> List.concat_map (fun (pl : Linguist.Plan.pass_plan) ->
           Array.to_list pl.Linguist.Plan.pl_prods.(1).Linguist.Plan.pp_actions)
    |> List.filter_map (function
         | Linguist.Plan.Eval { rule; _ } as action
           when ir.Linguist.Ir.rules.(rule).Linguist.Ir.r_targets
                = [|
                    { Linguist.Ir.occ = Linguist.Ir.Lhs; attr = sum.Linguist.Ir.a_id };
                  |]
           ->
             Some (Format.asprintf "%a" (Linguist.Plan.pp_action ir fork) action)
         | _ -> None)
  in
  Alcotest.(check (list string)) "Plan.pp_action prints +"
    [ "eval r4: tree$lhs[0] := (tree$1[0] + tree$2[0])" ]
    sum_evals;
  Alcotest.(check bool) "Circularity.pp_verdict" true
    (String.length
       (Format.asprintf "%a"
          (Linguist.Circularity.pp_verdict ir)
          (Linguist.Circularity.analyze ir))
    > 0)

(* ----- check warnings ----- *)

let test_limbless_semantics_warns () =
  let diag = Diag.create () in
  let src =
    "grammar X; root a; nonterminals a has syn P : t; end productions a ::= : a.P = 1; end"
  in
  (match Linguist.Ag_parse.parse ~file:"<t>" ~diag src with
  | Some ast -> ignore (Linguist.Check.check ~diag ast)
  | None -> Alcotest.fail "should parse");
  Alcotest.(check bool) "warning issued" true
    (List.exists
       (fun (d : Diag.t) -> d.severity = Diag.Warning)
       (Diag.to_list diag))

let test_unreachable_warning () =
  let diag = Diag.create () in
  let src =
    "grammar X; root a; nonterminals a; b; end productions a ::= ; b ::= ; end"
  in
  (match Linguist.Ag_parse.parse ~file:"<t>" ~diag src with
  | Some ast -> ignore (Linguist.Check.check ~diag ast)
  | None -> Alcotest.fail "should parse");
  Alcotest.(check bool) "unreachable warning" true
    (List.exists
       (fun (d : Diag.t) ->
         Fixtures.contains_substring ~needle:"unreachable" d.message)
       (Diag.to_list diag))

let () =
  Alcotest.run "misc"
    [
      ( "values",
        [
          Alcotest.test_case "set algebra" `Quick test_set_algebra;
          Alcotest.test_case "sequences" `Quick test_sequences;
          Alcotest.test_case "arith helpers" `Quick test_arith_helpers;
          Alcotest.test_case "unionpf" `Quick test_unionpf;
          Alcotest.test_case "wrong arity" `Quick test_wrong_arity_is_uninterpreted;
        ] );
      ("set merges", set_and_pf_properties);
      ( "ropes",
        [
          rope_differential;
          Alcotest.test_case "deep rope is stack-safe" `Quick
            test_deep_rope_is_stack_safe;
          Alcotest.test_case "evaluator outputs are flat" `Quick
            test_evaluator_outputs_are_flat;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "value decode" `Quick test_value_decode_corruption;
          Alcotest.test_case "node decode" `Quick test_node_decode_corruption;
        ] );
      ( "engine errors",
        [
          Alcotest.test_case "layout mismatch" `Quick
            test_engine_rejects_mismatched_record_layout;
          Alcotest.test_case "unknown intrinsic" `Quick
            test_leaf_attr_values_rejects_unknown;
          Alcotest.test_case "mislabelled record" `Quick
            test_engine_rejects_mislabelled_record;
        ] );
      ( "record layout",
        [
          Alcotest.test_case "built-in languages" `Quick
            test_record_layout_builtin_languages;
          Alcotest.test_case "grammar files" `Quick
            test_record_layout_grammar_files;
          Alcotest.test_case "corpus small/medium" `Quick
            test_record_layout_corpus;
        ] );
      ( "policies",
        [
          Alcotest.test_case "per-attribute differential" `Quick
            test_per_attribute_policy_differential;
          Alcotest.test_case "nested static sets" `Quick
            test_policies_pick_nested_sets;
        ] );
      ( "printers",
        [ Alcotest.test_case "smoke" `Quick test_pretty_printers ] );
      ( "warnings",
        [
          Alcotest.test_case "limbless production" `Quick
            test_limbless_semantics_warns;
          Alcotest.test_case "unreachable nonterminal" `Quick
            test_unreachable_warning;
        ] );
    ]
