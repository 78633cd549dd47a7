open Lg_support

type t = (int * int, Value.t) Hashtbl.t

let create () : t = Hashtbl.create 1024
let find t ~node ~attr = Hashtbl.find_opt t (node, attr)

type write = Created | Changed | Unchanged

let record t ~node ~attr value =
  let key = (node, attr) in
  let outcome =
    match Hashtbl.find_opt t key with
    | None -> Created
    | Some v -> if Value.equal v value then Unchanged else Changed
  in
  Hashtbl.replace t key value;
  outcome

let remove t ~node ~attr = Hashtbl.remove t (node, attr)
let cardinal t = Hashtbl.length t
