type t =
  | Bottom
  | Int of int
  | Bool of bool
  | Str of string
  | Name of Interner.name
  | List of t list
  | Cat of t * t * int
  | Set of t list
  | Pf of (t * t) list
  | Term of string * t list

(* Sequences -------------------------------------------------------------- *)

(* A sequence is a [List] or a rope of [Cat] nodes over non-empty
   sequences. Left-recursive rules such as [S0.CODE = Append(S1.CODE, ...)]
   build left-deep ropes as long as the list, so every traversal keeps its
   pending nodes in an explicit stack instead of recursing. As elsewhere in
   the package, [Bottom] reads as the empty sequence and any other value as
   a sequence of one. *)

let seq_length = function
  | List items -> List.length items
  | Cat (_, _, n) -> n
  | Bottom -> 0
  | _ -> 1

(* The items in order; a rope's last chunk is shared, not copied. *)
let items_of v =
  let rec go acc stack = function
    | Cat (l, r, _) -> go acc (l :: stack) r
    | List items -> next (match acc with [] -> items | _ -> items @ acc) stack
    | Bottom -> next acc stack
    | v -> next (v :: acc) stack
  and next acc = function [] -> acc | v :: stack -> go acc stack v in
  go [] [] v

let iter_items f v =
  let rec go stack = function
    | Cat (l, r, _) -> go (r :: stack) l
    | v ->
        List.iter f (items_of v);
        next stack
  and next = function [] -> () | v :: stack -> go stack v in
  go [] v

let as_seq = function
  | (List _ | Cat _) as v -> v
  | Bottom -> List []
  | v -> List [ v ]

(* [a] then [b] in O(1) beyond counting a flat operand, sharing both. *)
let append a b =
  let a = as_seq a and b = as_seq b in
  match (seq_length a, seq_length b) with
  | 0, _ -> b
  | _, 0 -> a
  | la, lb -> Cat (a, b, la + lb)

let cons x l =
  match as_seq l with
  | List items -> List (x :: items)
  | l -> Cat (List [ x ], l, seq_length l + 1)

(* A rope as the flat list it stands for; any other value as itself. *)
let flat = function Cat _ as v -> List (items_of v) | v -> v

(* One traversal step: a rope node's items, and the stack with its
   operands pushed in order. *)
let step node stack =
  match node with
  | Cat (l, r, _) -> ([], l :: r :: stack)
  | v -> (items_of v, stack)

(* Structural order; constructors compare by declaration order, except that
   a [Cat] compares as the [List] of its items. Set and Pf are canonical, so
   this is also a semantic order. *)
let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Bottom, Bottom -> 0
    | Bottom, _ -> -1
    | _, Bottom -> 1
    | Int x, Int y -> Stdlib.compare x y
    | Int _, _ -> -1
    | _, Int _ -> 1
    | Bool x, Bool y -> Stdlib.compare x y
    | Bool _, _ -> -1
    | _, Bool _ -> 1
    | Str x, Str y -> String.compare x y
    | Str _, _ -> -1
    | _, Str _ -> 1
    | Name x, Name y -> Stdlib.compare x y
    | Name _, _ -> -1
    | _, Name _ -> 1
    | (List _ | Cat _), (List _ | Cat _) -> compare_seq [] [ a ] [] [ b ]
    | (List _ | Cat _), _ -> -1
    | _, (List _ | Cat _) -> 1
    | Set x, Set y -> compare_list x y
    | Set _, _ -> -1
    | _, Set _ -> 1
    | Pf x, Pf y -> compare_pairs x y
    | Pf _, _ -> -1
    | _, Pf _ -> 1
    | Term (f, x), Term (g, y) -> (
        match String.compare f g with 0 -> compare_list x y | n -> n)

and compare_list x y = compare_seq x [] y []

(* Two sequences in lockstep, each as its current chunk of items and a stack
   of rope nodes still to visit. When both chunks run out with the same
   node on top of both stacks, that shared node is skipped unvisited. *)
and compare_seq xs sa ys sb =
  match (xs, ys) with
  | x :: xs, y :: ys -> (
      match compare x y with 0 -> compare_seq xs sa ys sb | n -> n)
  | [], [] -> (
      match (sa, sb) with
      | [], [] -> 0
      | a :: sa, b :: sb when a == b -> compare_seq [] sa [] sb
      | a :: sa, _ ->
          let xs, sa = step a sa in
          compare_seq xs sa [] sb
      | [], b :: sb ->
          let ys, sb = step b sb in
          compare_seq [] [] ys sb)
  | [], _ :: _ -> (
      match sa with
      | [] -> -1
      | a :: sa ->
          let xs, sa = step a sa in
          compare_seq xs sa ys sb)
  | _ :: _, [] -> (
      match sb with
      | [] -> 1
      | b :: sb ->
          let ys, sb = step b sb in
          compare_seq xs sa ys sb)

and compare_pairs x y =
  match (x, y) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (ka, va) :: x, (kb, vb) :: y -> (
      match compare ka kb with
      | 0 -> ( match compare va vb with 0 -> compare_pairs x y | n -> n)
      | n -> n)

let equal a b = compare a b = 0

let rec pp ppf v =
  let pp_items sep ppf items =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "%s@ " sep) pp ppf items
  in
  match v with
  | Bottom -> Format.pp_print_string ppf "_|_"
  | Int n -> Format.pp_print_int ppf n
  | Bool b -> Format.pp_print_bool ppf b
  | Str s -> Format.fprintf ppf "%S" s
  | Name n -> Format.fprintf ppf "#%d" n
  | List items -> Format.fprintf ppf "@[<hov 1>[%a]@]" (pp_items ";") items
  | Cat _ -> pp ppf (flat v)
  | Set items -> Format.fprintf ppf "@[<hov 1>{%a}@]" (pp_items ";") items
  | Pf bindings ->
      let pp_binding ppf (k, v) = Format.fprintf ppf "%a->%a" pp k pp v in
      Format.fprintf ppf "@[<hov 1>{|%a|}@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_binding)
        bindings
  | Term (f, []) -> Format.fprintf ppf "'%s" f
  | Term (f, args) ->
      Format.fprintf ppf "@[<hov 2>%s(%a)@]" f (pp_items ",") args

let to_string v = Format.asprintf "%a" pp v

let rec normalize v =
  match v with
  | Bottom | Int _ | Bool _ | Str _ | Name _ -> v
  | List items -> List (List.map normalize items)
  | Cat _ -> List (List.map normalize (items_of v))
  | Set items -> Set (List.map normalize items)
  | Pf bindings -> Pf (List.map (fun (k, d) -> (normalize k, normalize d)) bindings)
  | Term (f, args) -> Term (f, List.map normalize args)

(* Sets ------------------------------------------------------------------ *)

(* Canonical element lists are sorted and duplicate-free, so union,
   intersection and difference are single merges. *)

let set_of_list items = Set (List.sort_uniq compare items)

let set_elements = function
  | Set items -> items
  | Bottom -> []
  | (List _ | Cat _) as v -> List.sort_uniq compare (items_of v)
  | v -> [ v ]

let[@tail_mod_cons] rec union_items xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c < 0 then x :: union_items xs' ys
      else if c > 0 then y :: union_items xs ys'
      else x :: union_items xs' ys'

(* The items of [xs] that are ([keep = true]) or are not in [ys]. *)
let[@tail_mod_cons] rec filter_items ~keep xs ys =
  match (xs, ys) with
  | [], _ -> []
  | _, [] -> if keep then [] else xs
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c < 0 then
        if keep then filter_items ~keep xs' ys else x :: filter_items ~keep xs' ys
      else if c > 0 then filter_items ~keep xs ys'
      else if keep then x :: filter_items ~keep xs' ys'
      else filter_items ~keep xs' ys'

let set_union a b = Set (union_items (set_elements a) (set_elements b))
let set_add x s = Set (union_items [ x ] (set_elements s))
let set_mem x s = List.exists (equal x) (set_elements s)
let set_inter a b = Set (filter_items ~keep:true (set_elements a) (set_elements b))
let set_minus a b = Set (filter_items ~keep:false (set_elements a) (set_elements b))

(* Partial functions ------------------------------------------------------ *)

let pf_bindings = function Pf bs -> bs | _ -> []

let pf_bind ~key ~data pf =
  let[@tail_mod_cons] rec insert = function
    | [] -> [ (key, data) ]
    | ((k, _) as b) :: rest as bs ->
        let c = compare k key in
        if c < 0 then b :: insert rest
        else if c = 0 then (key, data) :: rest
        else (key, data) :: bs
  in
  Pf (insert (pf_bindings pf))

let pf_eval pf key =
  match List.find_opt (fun (k, _) -> equal k key) (pf_bindings pf) with
  | Some (_, v) -> v
  | None -> Bottom

let pf_domain pf = Set (List.map fst (pf_bindings pf))

(* Left-biased: a binding of [a] wins unless it binds [Bottom], which
   {!pf_eval} cannot tell from no binding. *)
let pf_union a b =
  let[@tail_mod_cons] rec merge xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | ((ka, va) as x) :: xs', ((kb, _) as y) :: ys' ->
        let c = compare ka kb in
        if c < 0 then x :: merge xs' ys
        else if c > 0 then y :: merge xs ys'
        else (match va with Bottom -> y | _ -> x) :: merge xs' ys'
  in
  match pf_bindings b with [] -> a | bb -> Pf (merge (pf_bindings a) bb)

(* Truthiness ------------------------------------------------------------- *)

let is_true = function Bool b -> b | _ -> false

(* Standard library ------------------------------------------------------- *)

let normalize_name s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '$' | '_' -> ()
      | 'A' .. 'Z' -> Buffer.add_char buf (Char.lowercase_ascii c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let int_of = function Int n -> n | Bool true -> 1 | _ -> 0

let fn_consmsg = function
  | [ _line; Bottom; _name; rest ] -> rest
  | [ line; err; name; rest ] -> cons (Term ("msg", [ line; err; name ])) rest
  | args -> Term ("cons$msg", args)

let functions : (string * (t list -> t)) list =
  [
    ("union", function [ a; b ] -> set_union a b | args -> Term ("union", args));
    ( "unionsetof",
      function [ x; s ] -> set_add x s | args -> Term ("union$setof", args) );
    ("isin", function [ x; s ] -> Bool (set_mem x s) | args -> Term ("isin", args));
    ( "intersect",
      function [ a; b ] -> set_inter a b | args -> Term ("intersect", args) );
    ( "setminus",
      function [ a; b ] -> set_minus a b | args -> Term ("setminus", args) );
    ( "sizeof",
      function
      | [ Set items ] -> Int (List.length items)
      | [ (List _ | Cat _) as l ] -> Int (seq_length l)
      | [ Pf bs ] -> Int (List.length bs)
      | [ Bottom ] -> Int 0
      | args -> Term ("sizeof", args) );
    ("cons", function [ x; l ] -> cons x l | args -> Term ("cons", args));
    ( "cons2",
      function
      | [ a; b; l ] -> cons (List [ a; b ]) l
      | args -> Term ("cons2", args) );
    ( "cons3",
      function
      | [ a; b; c; l ] -> cons (List [ a; b; c ]) l
      | args -> Term ("cons3", args) );
    ( "append",
      function [ a; b ] -> append a b | args -> Term ("append", args) );
    ("reverse", function [ l ] -> List (List.rev (items_of l)) | args -> Term ("reverse", args));
    ( "lengthof",
      function [ l ] -> Int (seq_length l) | args -> Term ("lengthof", args) );
    ( "head",
      fun args ->
        match List.map flat args with
        | [ List (x :: _) ] -> x
        | [ List [] ] | [ Bottom ] -> Bottom
        | args -> Term ("head", args) );
    ( "tail",
      fun args ->
        match List.map flat args with
        | [ List (_ :: rest) ] -> List rest
        | [ List [] ] | [ Bottom ] -> Bottom
        | args -> Term ("tail", args) );
    ( "conspf",
      function
      | [ key; data; pf ] -> pf_bind ~key ~data pf
      | args -> Term ("consPF", args) );
    ( "evalpf",
      function [ pf; key ] -> pf_eval pf key | args -> Term ("evalPF", args) );
    ("domainof", function [ pf ] -> pf_domain pf | args -> Term ("domainof", args));
    ( "unionpf",
      function [ a; b ] -> pf_union a b | args -> Term ("unionpf", args) );
    ("consmsg", fn_consmsg);
    ( "mergemsgs",
      function [ a; b ] -> append a b | args -> Term ("merge$msgs", args) );
    ( "incrifzero",
      function
      | [ x; n ] -> if equal x (Int 0) then Int (int_of n + 1) else n
      | args -> Term ("incrifzero", args) );
    ( "incriftrue",
      function
      | [ b; n ] -> if is_true b then Int (int_of n + 1) else n
      | args -> Term ("incriftrue", args) );
    ( "pow2",
      function
      | [ Int n ] -> if n < 0 then Int 0 else Int (1 lsl n)
      | args -> Term ("pow2", args) );
    ( "mulpow2",
      function
      | [ Int x; Int s ] ->
          if s >= 0 then Int (x lsl s) else Int (x asr -s)
      | args -> Term ("mulpow2", args) );
    ("max", function [ Int a; Int b ] -> Int (max a b) | args -> Term ("max", args));
    ("min", function [ Int a; Int b ] -> Int (min a b) | args -> Term ("min", args));
    ("abs", function [ Int a ] -> Int (abs a) | args -> Term ("abs", args));
    ("pair", function [ a; b ] -> List [ a; b ] | args -> Term ("pair", args));
    ( "first",
      fun args ->
        match List.map flat args with
        | [ List (x :: _) ] -> x
        | args -> Term ("first", args) );
    ( "second",
      fun args ->
        match List.map flat args with
        | [ List (_ :: y :: _) ] -> y
        | args -> Term ("second", args) );
    ("nameof", function [ Name n ] -> Name n | [ v ] -> v | args -> Term ("nameof", args));
    ("not", function [ Bool b ] -> Bool (not b) | args -> Term ("not", args));
  ]

let constants : (string * t) list =
  [
    ("bottom", Bottom);
    ("nomsg", Bottom);
    ("nullname", Bottom);
    ("nullmsglist", List []);
    ("nulllist", List []);
    ("emptyset", Set []);
    ("nullset", Set []);
    ("nullpf", Pf []);
  ]

let function_table : (string, t list -> t) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, f) -> Hashtbl.replace tbl name f) functions;
  tbl

let constant_table : (string, t) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (name, v) -> Hashtbl.replace tbl name v) constants;
  tbl

let lookup_function name = Hashtbl.find_opt function_table (normalize_name name)
let lookup_constant name = Hashtbl.find_opt constant_table (normalize_name name)

let apply name args =
  match lookup_function name with
  | Some f -> f args
  | None -> Term (name, args)

(* Binary encoding --------------------------------------------------------- *)

(* zigzag, so small negative ints stay short, over [Varint]'s bounded
   LEB128 *)
let add_varint buf n = Varint.add buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let read_varint s pos =
  let u, pos = Varint.read s pos in
  ((u lsr 1) lxor (-(u land 1)), pos)

let rec encode buf v =
  match v with
  | Bottom -> Buffer.add_char buf '\000'
  | Int n ->
      Buffer.add_char buf '\001';
      add_varint buf n
  | Bool b ->
      Buffer.add_char buf '\002';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Str s ->
      Buffer.add_char buf '\003';
      add_varint buf (String.length s);
      Buffer.add_string buf s
  | Name n ->
      Buffer.add_char buf '\004';
      add_varint buf n
  | List _ | Cat _ ->
      Buffer.add_char buf '\005';
      add_varint buf (seq_length v);
      iter_items (encode buf) v
  | Set items ->
      Buffer.add_char buf '\006';
      encode_list buf items
  | Pf bindings ->
      Buffer.add_char buf '\007';
      add_varint buf (List.length bindings);
      List.iter
        (fun (k, v) ->
          encode buf k;
          encode buf v)
        bindings
  | Term (f, args) ->
      Buffer.add_char buf '\008';
      add_varint buf (String.length f);
      Buffer.add_string buf f;
      encode_list buf args

and encode_list buf items =
  add_varint buf (List.length items);
  List.iter (encode buf) items

let rec decode s pos =
  if pos >= String.length s then failwith "Value.decode: truncated";
  let tag = Char.code s.[pos] in
  let pos = pos + 1 in
  match tag with
  | 0 -> (Bottom, pos)
  | 1 ->
      let n, pos = read_varint s pos in
      (Int n, pos)
  | 2 ->
      if pos >= String.length s then failwith "Value.decode: truncated bool";
      (Bool (Char.code s.[pos] <> 0), pos + 1)
  | 3 ->
      let len, pos = read_varint s pos in
      if len < 0 || len > String.length s - pos then
        failwith "Value.decode: truncated string";
      (Str (String.sub s pos len), pos + len)
  | 4 ->
      let n, pos = read_varint s pos in
      (Name n, pos)
  | 5 ->
      let items, pos = decode_list s pos in
      (List items, pos)
  | 6 ->
      let items, pos = decode_list s pos in
      (Set items, pos)
  | 7 ->
      let count, pos = read_varint s pos in
      if count < 0 then failwith "Value.decode: negative count";
      let rec go n pos acc =
        if n = 0 then (List.rev acc, pos)
        else
          let k, pos = decode s pos in
          let v, pos = decode s pos in
          go (n - 1) pos ((k, v) :: acc)
      in
      let bindings, pos = go count pos [] in
      (Pf bindings, pos)
  | 8 ->
      let len, pos = read_varint s pos in
      if len < 0 || len > String.length s - pos then
        failwith "Value.decode: truncated term head";
      let f = String.sub s pos len in
      let args, pos = decode_list s (pos + len) in
      (Term (f, args), pos)
  | tag -> failwith (Printf.sprintf "Value.decode: bad tag %d" tag)

and decode_list s pos =
  let count, pos = read_varint s pos in
  if count < 0 then failwith "Value.decode: negative count";
  let rec go n pos acc =
    if n = 0 then (List.rev acc, pos)
    else
      let v, pos = decode s pos in
      go (n - 1) pos (v :: acc)
  in
  go count pos []

let encoded_size v =
  let buf = Buffer.create 32 in
  encode buf v;
  Buffer.length buf
