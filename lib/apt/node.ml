open Lg_support

type t = { prod : int; sym : int; attrs : Value.t array }

let leaf_prod = -1
let leaf ~sym ~attrs = { prod = leaf_prod; sym; attrs }
let interior ~prod ~sym ~attrs =
  if prod < 0 then invalid_arg "Node.interior: negative production";
  { prod; sym; attrs }

let is_leaf t = t.prod = leaf_prod

let equal a b =
  a.prod = b.prod && a.sym = b.sym
  && Array.length a.attrs = Array.length b.attrs
  && Array.for_all2 Value.equal a.attrs b.attrs

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>{%s %d; sym %d;%a}@]"
    (if is_leaf t then "leaf" else "prod")
    t.prod t.sym
    (fun ppf attrs ->
      Array.iteri (fun i v -> Format.fprintf ppf "@ %d=%a" i Value.pp v) attrs)
    t.attrs

let add_field buf n =
  if n < 0 then invalid_arg "Node.encode: negative field";
  Varint.add buf n

(* Payload layout: varint (prod+1), varint sym, varint nattrs, values. *)
let encode buf t =
  add_field buf (t.prod + 1);
  add_field buf t.sym;
  add_field buf (Array.length t.attrs);
  Array.iter (Value.encode buf) t.attrs

let corrupt offset detail =
  Apt_error.raise_ (Apt_error.Corrupt_record { path = None; offset; detail })

(* a header field: a bounded varint that decodes non-negative *)
let read_field s pos =
  let ((n, _) as field) = Varint.read s pos in
  if n < 0 then failwith "varint decodes negative";
  field

(* [Varint] and [Value.decode] report malformed bytes through [Failure];
   [pos] is the start of the field being read, the offset the typed
   error names *)
let decode s =
  let pos = ref 0 in
  try
    let prod1, p = read_field s 0 in
    pos := p;
    let sym, p = read_field s p in
    pos := p;
    let nattrs, p = read_field s p in
    pos := p;
    (* every value takes at least its tag byte, so a count past the
       bytes left is damage, not an array to allocate *)
    if nattrs > String.length s - p then
      failwith
        (Printf.sprintf "node payload claims %d values in %d bytes" nattrs
           (String.length s - p));
    let attrs =
      Array.init nattrs (fun _ ->
          let v, next = Value.decode s !pos in
          pos := next;
          v)
    in
    if !pos <> String.length s then failwith "node payload has trailing bytes";
    { prod = prod1 - 1; sym; attrs }
  with Failure detail -> corrupt !pos detail

let encoded_size t =
  let buf = Buffer.create 64 in
  encode buf t;
  Buffer.length buf
