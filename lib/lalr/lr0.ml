open Lg_grammar

type item = { prod : int; dot : int }

type state = {
  id : int;
  kernel : item list;
  closure : item list;
  transitions : (Cfg.symbol * int) list;
}

type t = {
  grammar : Cfg.t;
  states : state array;
  augmented : int;
}

let grammar t = t.grammar
let augmented_prod t = t.augmented

let prod_lhs t prod =
  if prod = t.augmented then Cfg.nonterminal_count t.grammar
  else t.grammar.productions.(prod).lhs

let prod_rhs t prod =
  if prod = t.augmented then [| Cfg.NT t.grammar.start |]
  else t.grammar.productions.(prod).rhs

let compare_item a b =
  match compare a.prod b.prod with 0 -> compare a.dot b.dot | n -> n

(* Closure of an item list under "dot before a nonterminal adds all its
   productions at dot 0". *)
let close_items t kernel =
  let module S = Set.Make (struct
    type nonrec t = item

    let compare = compare_item
  end) in
  let rec add item set =
    if S.mem item set then set
    else
      let set = S.add item set in
      let rhs = prod_rhs t item.prod in
      if item.dot < Array.length rhs then
        match rhs.(item.dot) with
        | Cfg.T _ -> set
        | Cfg.NT nt ->
            List.fold_left
              (fun set pi -> add { prod = pi; dot = 0 } set)
              set t.grammar.prods_of.(nt)
      else set
  in
  S.elements (List.fold_left (fun set item -> add item set) S.empty kernel)

let build g =
  let augmented = Cfg.production_count g in
  let t =
    { grammar = g; states = [||]; augmented }
  in
  let by_kernel : (item list, int) Hashtbl.t = Hashtbl.create 64 in
  (* States by id, filled in as [explore] finishes them. *)
  let states = ref [||] and count = ref 0 in
  let set_state id st =
    if id >= Array.length !states then begin
      let grown = Array.make (max 64 (2 * id)) st in
      Array.blit !states 0 grown 0 (Array.length !states);
      states := grown
    end;
    !states.(id) <- st
  in
  let rec explore kernel =
    match Hashtbl.find_opt by_kernel kernel with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        Hashtbl.add by_kernel kernel id;
        let closure = close_items t kernel in
        (* Group closure items by the symbol after the dot. *)
        let moves : (Cfg.symbol * item list) list ref = ref [] in
        List.iter
          (fun item ->
            let rhs = prod_rhs t item.prod in
            if item.dot < Array.length rhs then begin
              let sym = rhs.(item.dot) in
              let advanced = { item with dot = item.dot + 1 } in
              match List.assoc_opt sym !moves with
              | Some items ->
                  moves :=
                    (sym, advanced :: items)
                    :: List.remove_assoc sym !moves
              | None -> moves := (sym, [ advanced ]) :: !moves
            end)
          closure;
        let transitions =
          List.rev_map
            (fun (sym, items) ->
              let target = explore (List.sort compare_item items) in
              (sym, target))
            !moves
        in
        set_state id { id; kernel; closure; transitions };
        id
  in
  let start = explore [ { prod = augmented; dot = 0 } ] in
  assert (start = 0);
  { t with states = Array.sub !states 0 !count }

let state_count t = Array.length t.states
let state t id = t.states.(id)
let start_state _ = 0
let goto t id sym = List.assoc_opt sym t.states.(id).transitions

let reductions t id =
  List.filter_map
    (fun item ->
      if item.dot = Array.length (prod_rhs t item.prod) then Some item.prod
      else None)
    t.states.(id).closure

let pp_item t ppf item =
  let rhs = prod_rhs t item.prod in
  let lhs =
    if item.prod = t.augmented then "S'"
    else Cfg.nonterminal_name t.grammar (prod_lhs t item.prod)
  in
  Format.fprintf ppf "%s ::=" lhs;
  Array.iteri
    (fun i sym ->
      if i = item.dot then Format.fprintf ppf " .";
      Format.fprintf ppf " %s" (Cfg.symbol_name t.grammar sym))
    rhs;
  if item.dot = Array.length rhs then Format.fprintf ppf " ."

let pp_state t ppf st =
  Format.fprintf ppf "state %d:@." st.id;
  List.iter (fun item -> Format.fprintf ppf "  %a@." (pp_item t) item) st.closure;
  List.iter
    (fun (sym, dst) ->
      Format.fprintf ppf "  %s -> %d@." (Cfg.symbol_name t.grammar sym) dst)
    st.transitions
