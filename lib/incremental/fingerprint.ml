open Lg_support
open Lg_apt

(* A subtree's shape key: leaves by (symbol, encoded intrinsic values),
   interior nodes by (production, symbol, child cons ids). Interning the
   key gives exact structural identity with O(1) equality. *)
type key = Kleaf of int * string | Kinterior of int * int * int list

type t = {
  interned : (key, int) Hashtbl.t;
  by_node : (int, int) Hashtbl.t;  (* Tree node id -> cons id *)
  mutable sizes : int array;  (* cons id -> node count of the shape *)
  mutable next : int;
}

let create () =
  {
    interned = Hashtbl.create 1024;
    by_node = Hashtbl.create 1024;
    sizes = Array.make 1024 0;
    next = 0;
  }

let rec cons t (n : Tree.t) =
  match Hashtbl.find_opt t.by_node n.Tree.id with
  | Some c -> c
  | None ->
      let key =
        if n.Tree.prod = Node.leaf_prod then begin
          let b = Buffer.create 32 in
          Array.iter (Value.encode b) n.Tree.leaf_attrs;
          Kleaf (n.Tree.sym, Buffer.contents b)
        end
        else
          Kinterior (n.Tree.prod, n.Tree.sym, List.map (cons t) n.Tree.children)
      in
      let c =
        match Hashtbl.find_opt t.interned key with
        | Some c -> c
        | None ->
            let c = t.next in
            t.next <- c + 1;
            Hashtbl.add t.interned key c;
            if c = Array.length t.sizes then begin
              let grown = Array.make (2 * c) 0 in
              Array.blit t.sizes 0 grown 0 c;
              t.sizes <- grown
            end;
            t.sizes.(c) <-
              (match key with
              | Kleaf _ -> 1
              | Kinterior (_, _, kids) ->
                  List.fold_left (fun acc k -> acc + t.sizes.(k)) 1 kids);
            c
      in
      Hashtbl.add t.by_node n.Tree.id c;
      c

let size t n = t.sizes.(cons t n)
let memo_size t = Hashtbl.length t.by_node
