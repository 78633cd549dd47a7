(* Tests for the disk-resident APT layer: record framing, bidirectional
   reads (the paper's alternating-file-order figure, F1), and linearization
   round trips. *)
open Lg_support
open Lg_apt

let v n = Value.Int n

let sample_nodes =
  [
    Node.leaf ~sym:3 ~attrs:[| v 1; Value.Str "x" |];
    Node.interior ~prod:0 ~sym:1 ~attrs:[||];
    Node.leaf ~sym:4 ~attrs:[| Value.Bottom |];
    Node.interior ~prod:7 ~sym:0
      ~attrs:[| Value.set_of_list [ v 1; v 2 ]; Value.List [ v 9 ] |];
  ]

let check_node = Alcotest.testable Node.pp Node.equal

let mem = Aptfile.backend_of_store_name "mem"

let paged dir =
  Aptfile.backend_of_store_name
    ~config:{ Apt_store.default_config with dir = Some dir }
    "paged"

let backends temp_dir = [ ("mem", mem); ("paged", paged temp_dir) ]

let with_temp_dir f =
  let dir = Filename.temp_file "apttest" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_node_roundtrip () =
  List.iter
    (fun node ->
      let buf = Buffer.create 64 in
      Node.encode buf node;
      let decoded = Node.decode (Buffer.contents buf) in
      Alcotest.check check_node "roundtrip" node decoded;
      Alcotest.(check int) "size" (Buffer.length buf) (Node.encoded_size node))
    sample_nodes

let test_forward_read () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (name, backend) ->
      let file = Aptfile.of_list backend sample_nodes in
      Alcotest.(check int) (name ^ " record count") 4 (Aptfile.record_count file);
      Alcotest.(check (list check_node)) (name ^ " forward") sample_nodes
        (Aptfile.to_list file);
      Aptfile.dispose file)
    (backends dir)

let test_backward_read () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (name, backend) ->
      let file = Aptfile.of_list backend sample_nodes in
      let r = Aptfile.read_backward file in
      let rec drain acc =
        match Aptfile.read_next r with
        | Some n -> drain (n :: acc)
        | None -> acc
      in
      let reversed_back = drain [] in
      Aptfile.close_reader r;
      Alcotest.(check (list check_node)) (name ^ " backward = reverse")
        sample_nodes reversed_back;
      Aptfile.dispose file)
    (backends dir)

let test_stats_accounting () =
  let stats = Io_stats.create () in
  let file = Aptfile.of_list ~stats mem sample_nodes in
  Alcotest.(check int) "records written" 4 (Io_stats.get stats.Io_stats.records_written);
  Alcotest.(check int) "bytes = file size" (Aptfile.size_bytes file)
    (Io_stats.get stats.Io_stats.bytes_written);
  ignore (Aptfile.to_list ~stats file);
  Alcotest.(check int) "records read" 4 (Io_stats.get stats.Io_stats.records_read);
  Alcotest.(check int) "bytes read back"
    (Io_stats.get stats.Io_stats.bytes_written)
    (Io_stats.get stats.Io_stats.bytes_read);
  Alcotest.(check int) "one file" 1 (Io_stats.get stats.Io_stats.files_created)

let test_mem_paged_identical_format () =
  with_temp_dir @@ fun dir ->
  let in_mem = Aptfile.of_list mem sample_nodes in
  let on_file = Aptfile.of_list (paged dir) sample_nodes in
  Alcotest.(check int) "same byte size" (Aptfile.size_bytes in_mem)
    (Aptfile.size_bytes on_file);
  Aptfile.dispose on_file

(* ----- trees ----- *)

(* The paper's illustration tree:
       M(F(B(A,C),E(D)),G,L(H,K(I,J)))   -- shaped like the figure in §II *)
let figure_tree () =
  let leaf name = Tree.leaf ~sym:0 ~attrs:[| Value.Str name |] in
  let node prod children = Tree.interior ~prod ~sym:1 ~children in
  node 1
    [
      node 2 [ node 3 [ leaf "A"; leaf "C" ] (* B *); node 4 [ leaf "D" ] (* E *) ]
      (* F *);
      leaf "G";
      node 5 [ leaf "H"; node 6 [ leaf "I"; leaf "J" ] (* K *) ] (* L *);
    ]

let figure_arity (node : Node.t) =
  if Node.is_leaf node then 0
  else match node.Node.prod with 1 -> 3 | 4 -> 1 | _ -> 2

let leaf_names_in emit_order tree =
  let names = ref [] in
  emit_order
    (fun (t : Tree.t) ->
      if t.Tree.prod = Node.leaf_prod then
        match t.Tree.leaf_attrs.(0) with
        | Value.Str s -> names := s :: !names
        | _ -> ())
    tree;
  List.rev !names

let test_tree_orders () =
  let tree = figure_tree () in
  Alcotest.(check int) "size" 13 (Tree.size tree);
  Alcotest.(check int) "depth" 4 (Tree.depth tree);
  Alcotest.(check (list string)) "postfix leaves"
    [ "A"; "C"; "D"; "G"; "H"; "I"; "J" ]
    (leaf_names_in Tree.iter_postfix_ltr tree);
  Alcotest.(check (list string)) "prefix leaves"
    [ "A"; "C"; "D"; "G"; "H"; "I"; "J" ]
    (leaf_names_in Tree.iter_prefix_ltr tree)

(* F1: the output file of a left-to-right (postfix) pass, read backwards,
   is a right-to-left prefix stream that rebuilds the same tree. *)
let test_f1_reversal () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (name, backend) ->
      let tree = figure_tree () in
      let w = Aptfile.writer backend in
      Build.write_postfix_ltr w Build.default_node tree;
      let file = Aptfile.close_writer w in
      let r = Aptfile.read_backward file in
      let rebuilt =
        Build.read_tree r ~order:`Prefix_rtl
          ~arity:figure_arity ~rebuild:Build.default_rebuild
      in
      Aptfile.close_reader r;
      Alcotest.(check bool) (name ^ ": rebuilt tree equals original") true
        (Tree.equal_shape tree rebuilt);
      Aptfile.dispose file)
    (backends dir)

(* Forward prefix write / forward prefix read round trip. *)
let test_prefix_roundtrip () =
  let tree = figure_tree () in
  let w = Aptfile.writer mem in
  Build.write_prefix_ltr w Build.default_node tree;
  let file = Aptfile.close_writer w in
  let r = Aptfile.read_forward file in
  let rebuilt =
    Build.read_tree r ~order:`Prefix_ltr
      ~arity:figure_arity ~rebuild:Build.default_rebuild
  in
  Alcotest.(check bool) "prefix roundtrip" true (Tree.equal_shape tree rebuilt)

(* Random trees: generate, linearize postfix, read backward, rebuild. *)
let tree_gen =
  let open QCheck.Gen in
  let leaf = map (fun n -> Tree.leaf ~sym:0 ~attrs:[| Value.Int n |]) small_nat in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (1, leaf);
            ( 3,
              int_range 1 3 >>= fun n ->
              map
                (fun children -> Tree.interior ~prod:n ~sym:1 ~children)
                (list_repeat n (self (depth - 1))) );
          ])
    4

let arity_of_prod (node : Node.t) =
  if Node.is_leaf node then 0 else node.Node.prod

let prop_f1_random_trees =
  QCheck.Test.make ~name:"F1 on random trees (postfix file read backwards)"
    ~count:300
    (QCheck.make tree_gen)
    (fun tree ->
      let w = Aptfile.writer mem in
      Build.write_postfix_ltr w Build.default_node tree;
      let file = Aptfile.close_writer w in
      let r = Aptfile.read_backward file in
      let rebuilt =
        Build.read_tree r ~order:`Prefix_rtl ~arity:arity_of_prod
          ~rebuild:Build.default_rebuild
      in
      Tree.equal_shape tree rebuilt)

let prop_forward_backward_mirror =
  QCheck.Test.make ~name:"backward read is reversed forward read" ~count:200
    (QCheck.make tree_gen)
    (fun tree ->
      let w = Aptfile.writer mem in
      Build.write_postfix_ltr w Build.default_node tree;
      let file = Aptfile.close_writer w in
      let forward = Aptfile.to_list file in
      let r = Aptfile.read_backward file in
      let rec drain acc =
        match Aptfile.read_next r with Some n -> drain (n :: acc) | None -> acc
      in
      let backward_reversed = drain [] in
      List.length forward = List.length backward_reversed
      && List.for_all2 Node.equal forward backward_reversed)

(* Node ids stay unique when several domains build trees at once, as
   pooled parses do. *)
let test_ids_unique_across_domains () =
  let per_domain = 50_000 in
  let build () =
    Array.init per_domain (fun _ -> (Tree.leaf ~sym:0 ~attrs:[||]).Tree.id)
  in
  let ids =
    List.init 4 (fun _ -> Domain.spawn build)
    |> List.map Domain.join |> Array.concat
  in
  Array.sort compare ids;
  let dup = ref 0 in
  Array.iteri (fun i id -> if i > 0 && ids.(i - 1) = id then incr dup) ids;
  Alcotest.(check int) "no id issued twice" 0 !dup

let () =
  Alcotest.run "apt"
    [
      ( "records",
        [
          Alcotest.test_case "node roundtrip" `Quick test_node_roundtrip;
          Alcotest.test_case "forward read" `Quick test_forward_read;
          Alcotest.test_case "backward read" `Quick test_backward_read;
          Alcotest.test_case "stats" `Quick test_stats_accounting;
          Alcotest.test_case "mem/paged same format" `Quick
            test_mem_paged_identical_format;
        ] );
      ( "trees",
        [
          Alcotest.test_case "orders" `Quick test_tree_orders;
          Alcotest.test_case "F1 reversal (figure tree)" `Quick test_f1_reversal;
          Alcotest.test_case "prefix roundtrip" `Quick test_prefix_roundtrip;
          QCheck_alcotest.to_alcotest prop_f1_random_trees;
          QCheck_alcotest.to_alcotest prop_forward_backward_mirror;
          Alcotest.test_case "ids unique across domains" `Quick
            test_ids_unique_across_domains;
        ] );
    ]
