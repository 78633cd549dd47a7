open Lg_support
open Lg_apt

(* Two cell states besides a value, told apart from values by physical
   equality: both blocks are private to this module, so no value a rule
   computes is either of them. *)
let absent = Value.Term ("<absent>", [])
let computing = Value.Term ("<computing>", [])

type row = {
  mutable parent : Tree.t;  (* the node itself at the root *)
  mutable pos : int;  (* child position under [parent]; -1 at the root *)
  born : int;  (* the epoch that created the row *)
  cells : Value.t array;
}

(* Node ids are handed out consecutively, so the identity hash spreads
   them evenly over the buckets. *)
module Rows = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

type t = { rows : row Rows.t; widths : int array; mutable epoch : int }

let create ~widths = { rows = Rows.create 1024; widths; epoch = 0 }

let find t (n : Tree.t) =
  match Rows.find t.rows n.Tree.id with
  | row -> row
  | exception Not_found -> invalid_arg "Attr_versions: the node has no row"

let is_interior (n : Tree.t) = n.Tree.prod <> Node.leaf_prod

let add t (n : Tree.t) ~parent ~pos =
  Rows.replace t.rows n.Tree.id
    {
      parent;
      pos;
      born = t.epoch;
      cells = Array.make t.widths.(n.Tree.prod) absent;
    }

let add_tree t tree =
  let rec go parent pos (n : Tree.t) =
    if is_interior n then begin
      add t n ~parent ~pos;
      List.iteri (go n) n.Tree.children
    end
  in
  go tree (-1) tree

let add_seeds t seeds =
  List.iter (fun n -> add t n ~parent:n ~pos:(-1)) seeds;
  List.iter
    (fun (n : Tree.t) ->
      List.iteri
        (fun i (c : Tree.t) ->
          if is_interior c then begin
            let row = find t c in
            row.parent <- n;
            row.pos <- i
          end)
        n.Tree.children)
    seeds

let remove t (n : Tree.t) = if is_interior n then Rows.remove t.rows n.Tree.id
let fresh t row = row.born = t.epoch
let settle t = t.epoch <- t.epoch + 1

type status = Absent | Computing | Set

let status row i =
  let v = row.cells.(i) in
  if v == absent then Absent else if v == computing then Computing else Set

let get row i = row.cells.(i)
let mark row i = row.cells.(i) <- computing
let unmark row i = if row.cells.(i) == computing then row.cells.(i) <- absent

type write = Created | Changed | Unchanged

let record row i value =
  let old = row.cells.(i) in
  row.cells.(i) <- value;
  if old == absent || old == computing then Created
  else if Value.equal old value then Unchanged
  else Changed

let parent row = row.parent
let pos row = row.pos
let rows t = Rows.length t.rows

let count t p =
  Rows.fold
    (fun _ row acc ->
      Array.fold_left (fun acc v -> if p v then acc + 1 else acc) acc row.cells)
    t.rows 0

let cardinal t = count t (fun v -> v != absent && v != computing)
let markers t = count t (fun v -> v == computing)
