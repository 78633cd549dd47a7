type cycle = { c_prod : int; c_refs : Ir.aref list }

type verdict =
  | Circular of cycle
  | Noncircular of { absolutely : bool }
  | Unknown of string

(* A relation: sorted, deduplicated (inherited attr, synthesized attr)
   pairs over one nonterminal's attributes. *)
module Rel = struct
  type t = (int * int) list

  let normalize pairs = List.sort_uniq compare pairs
  let union a b = normalize (a @ b)
end

(* The dependency graph of one production instance: base rule edges plus
   one IO relation per nonterminal child. *)
module Graph = struct
  type t = { edges : (Ir.aref, Ir.aref list) Hashtbl.t }

  let create () = { edges = Hashtbl.create 32 }

  let add_edge g src dst =
    let prev = Option.value ~default:[] (Hashtbl.find_opt g.edges src) in
    if not (List.mem dst prev) then Hashtbl.replace g.edges src (dst :: prev)

  let successors g n = Option.value ~default:[] (Hashtbl.find_opt g.edges n)

  (* One cycle if any, as a node list in dependency order. *)
  let find_cycle g =
    let color : (Ir.aref, [ `Active | `Done ]) Hashtbl.t = Hashtbl.create 32 in
    let cycle = ref None in
    let rec dfs path n =
      match Hashtbl.find_opt color n with
      | Some `Done -> ()
      | Some `Active ->
          if !cycle = None then begin
            let rec take acc = function
              | [] -> acc
              | x :: rest -> if x = n then x :: acc else take (x :: acc) rest
            in
            cycle := Some (take [] path)
          end
      | None ->
          Hashtbl.replace color n `Active;
          List.iter (fun m -> if !cycle = None then dfs (n :: path) m) (successors g n);
          Hashtbl.replace color n `Done
    in
    Hashtbl.iter (fun n _ -> if !cycle = None then dfs [] n) g.edges;
    !cycle

  (* All nodes reachable from [start]. *)
  let reachable g start =
    let seen = Hashtbl.create 16 in
    let rec go n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.replace seen n ();
        List.iter go (successors g n)
      end
    in
    go start;
    fun n -> Hashtbl.mem seen n
end

let attrs_by_kind (ir : Ir.t) sym kind =
  List.filter (fun a -> ir.attrs.(a).Ir.a_kind = kind) ir.symbols.(sym).Ir.s_attrs

(* Build the production graph given one relation per nonterminal child. *)
let production_graph (ir : Ir.t) (p : Ir.production) child_rels =
  let g = Graph.create () in
  List.iter
    (fun rid ->
      let r = ir.rules.(rid) in
      Array.iter
        (fun dep ->
          Array.iter (fun tgt -> Graph.add_edge g dep tgt) r.Ir.r_targets)
        r.Ir.r_deps)
    p.Ir.p_rules;
  Array.iteri
    (fun i sym ->
      match List.assoc_opt i child_rels with
      | Some rel ->
          List.iter
            (fun (inh, syn) ->
              Graph.add_edge g
                { Ir.occ = Ir.Rhs i; attr = inh }
                { Ir.occ = Ir.Rhs i; attr = syn })
            rel
      | None -> ignore sym)
    p.Ir.p_rhs;
  g

(* Project a production graph onto the LHS: which inherited attributes can
   a complete tree under this production make a synthesized attribute
   depend on? *)
let project (ir : Ir.t) (p : Ir.production) g =
  let inh = attrs_by_kind ir p.Ir.p_lhs Ir.Inherited in
  let syn = attrs_by_kind ir p.Ir.p_lhs Ir.Synthesized in
  Rel.normalize
    (List.concat_map
       (fun i ->
         let reach = Graph.reachable g { Ir.occ = Ir.Lhs; attr = i } in
         List.filter_map
           (fun s ->
             if reach { Ir.occ = Ir.Lhs; attr = s } then Some (i, s) else None)
           syn)
       inh)

let reachable_symbols (ir : Ir.t) =
  let seen = Array.make (Array.length ir.symbols) false in
  let rec visit sym =
    if not seen.(sym) then begin
      seen.(sym) <- true;
      Array.iter
        (fun (p : Ir.production) ->
          if p.Ir.p_lhs = sym then Array.iter visit p.Ir.p_rhs)
        ir.prods
    end
  in
  visit ir.root;
  seen

(* Enumerate combinations of one relation per nonterminal child; calls
   [k] with the chosen association list. Bounded by [cap] total calls. *)
let for_each_combination ~cap children k =
  let calls = ref 0 in
  let rec go acc = function
    | [] ->
        incr calls;
        if !calls > cap then raise Exit;
        k (List.rev acc)
    | (i, rels) :: rest -> List.iter (fun r -> go ((i, r) :: acc) rest) rels
  in
  go [] children

let nonterminal_children (ir : Ir.t) (p : Ir.production) =
  Array.to_list p.Ir.p_rhs
  |> List.mapi (fun i sym -> (i, sym))
  |> List.filter (fun (_, sym) -> ir.symbols.(sym).Ir.s_kind = Ir.Nonterminal)

(* The merged (absolute noncircularity) analysis: one relation per
   nonterminal. Returns the relations and the first potentially cyclic
   production, if any. *)
let merged_analysis (ir : Ir.t) reachable =
  let n = Array.length ir.symbols in
  let rel = Array.make n [] in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Ir.production) ->
        if reachable.(p.Ir.p_lhs) then begin
          let child_rels =
            List.map (fun (i, sym) -> (i, rel.(sym))) (nonterminal_children ir p)
          in
          let g = production_graph ir p child_rels in
          let projected = project ir p g in
          let merged = Rel.union rel.(p.Ir.p_lhs) projected in
          if merged <> rel.(p.Ir.p_lhs) then begin
            rel.(p.Ir.p_lhs) <- merged;
            changed := true
          end
        end)
      ir.prods
  done;
  let cyclic =
    Array.to_list ir.prods
    |> List.find_map (fun (p : Ir.production) ->
           if not reachable.(p.Ir.p_lhs) then None
           else
             let child_rels =
               List.map (fun (i, sym) -> (i, rel.(sym))) (nonterminal_children ir p)
             in
             let g = production_graph ir p child_rels in
             Option.map (fun refs -> { c_prod = p.Ir.p_id; c_refs = refs })
               (Graph.find_cycle g))
  in
  (rel, cyclic)

exception Found_cycle of cycle

(* Knuth's exact test with a bounded IO-relation set. *)
let exact_analysis ~max_relations (ir : Ir.t) reachable =
  let n = Array.length ir.symbols in
  let io : Rel.t list array = Array.make n [] in
  Array.iteri
    (fun s (sym : Ir.symbol) ->
      if sym.Ir.s_kind = Ir.Terminal then io.(s) <- [ [] ])
    ir.symbols;
  try
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun (p : Ir.production) ->
          if reachable.(p.Ir.p_lhs) then begin
            let children =
              List.map
                (fun (i, sym) -> (i, io.(sym)))
                (nonterminal_children ir p)
            in
            if List.for_all (fun (_, rels) -> rels <> []) children then
              for_each_combination ~cap:4096 children (fun child_rels ->
                  let g = production_graph ir p child_rels in
                  (match Graph.find_cycle g with
                  | Some refs ->
                      raise (Found_cycle { c_prod = p.Ir.p_id; c_refs = refs })
                  | None -> ());
                  let r = project ir p g in
                  if not (List.mem r io.(p.Ir.p_lhs)) then begin
                    if List.length io.(p.Ir.p_lhs) >= max_relations then
                      raise Exit;
                    io.(p.Ir.p_lhs) <- r :: io.(p.Ir.p_lhs);
                    changed := true
                  end)
          end)
        ir.prods
    done;
    `Noncircular
  with
  | Found_cycle c -> `Circular c
  | Exit -> `Overflow

let analyze ?(max_relations = 64) (ir : Ir.t) =
  let reachable = reachable_symbols ir in
  let _, merged_cycle = merged_analysis ir reachable in
  match merged_cycle with
  | None -> Noncircular { absolutely = true }
  | Some _ -> (
      (* The merged graph is only a sufficient condition; consult the
         exact test before declaring anything. *)
      match exact_analysis ~max_relations ir reachable with
      | `Circular c -> Circular c
      | `Noncircular -> Noncircular { absolutely = false }
      | `Overflow ->
          Unknown
            "the exact test exceeded its relation budget and the merged \
             approximation contains a potential cycle")

let pp_verdict (ir : Ir.t) ppf = function
  | Circular { c_prod; c_refs } ->
      let p = ir.prods.(c_prod) in
      Format.fprintf ppf
        "@[<hov 2>circular: in production %s the instances@ %a@ depend on \
         themselves@]"
        p.Ir.p_tag
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " ->@ ")
           (Ir.pp_aref ir p))
        c_refs
  | Noncircular { absolutely = true } ->
      Format.fprintf ppf "noncircular (absolutely: every tree-walk strategy applies)"
  | Noncircular { absolutely = false } ->
      Format.fprintf ppf
        "noncircular, but not absolutely so (outside every merged-graph \
         evaluator class)"
  | Unknown reason -> Format.fprintf ppf "possibly circular: %s" reason

let explain_rejection (ir : Ir.t) =
  match analyze ir with
  | Circular _ as v -> Format.asprintf "%a" (pp_verdict ir) v
  | Noncircular _ ->
      "the grammar is well-defined (noncircular); its information flow \
       simply does not fit the requested number of alternating passes"
  | Unknown reason -> reason
