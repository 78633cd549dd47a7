open Lg_support

type t = {
  id : int;
  prod : int;
  sym : int;
  children : t list;
  leaf_attrs : Value.t array;
}

(* Shared by every domain that builds trees: pooled parses must never
   re-issue an id, since incremental state is keyed by node ids. *)
let counter = Atomic.make 0
let next_id () = Atomic.fetch_and_add counter 1 + 1

let leaf ~sym ~attrs =
  { id = next_id (); prod = Node.leaf_prod; sym; children = []; leaf_attrs = attrs }

let interior ~prod ~sym ~children =
  if prod < 0 then invalid_arg "Tree.interior: negative production";
  { id = next_id (); prod; sym; children; leaf_attrs = [||] }

let rec size t = 1 + List.fold_left (fun acc c -> acc + size c) 0 t.children

let rec depth t =
  1 + List.fold_left (fun acc c -> max acc (depth c)) 0 t.children

let rec iter_postfix_ltr f t =
  List.iter (iter_postfix_ltr f) t.children;
  f t

let rec iter_prefix_ltr f t =
  f t;
  List.iter (iter_prefix_ltr f) t.children

let rec equal_shape a b =
  a.prod = b.prod && a.sym = b.sym
  && Array.length a.leaf_attrs = Array.length b.leaf_attrs
  && Array.for_all2 Value.equal a.leaf_attrs b.leaf_attrs
  && List.length a.children = List.length b.children
  && List.for_all2 equal_shape a.children b.children
