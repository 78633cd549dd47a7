open Lg_support
open Lg_apt

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

(* Persistence: the store is streamed as APT records — a header record
   carrying the entry count, then one record per entry with the key in
   the (prod, sym) fields and the value in the only attribute slot.
   Going through Aptfile means the bytes pass the same framing,
   checksumming and fault machinery as evaluator intermediate files. *)

let save t backend =
  let w = Aptfile.writer backend in
  Aptfile.write w
    (Node.interior ~prod:0 ~sym:0 ~attrs:[| Value.Int (Hashtbl.length t) |]);
  Hashtbl.iter
    (fun (node, attr) value ->
      Aptfile.write w (Node.interior ~prod:node ~sym:attr ~attrs:[| value |]))
    t;
  Aptfile.close_writer w

let load file =
  let r = Aptfile.read_forward file in
  Fun.protect
    ~finally:(fun () -> Aptfile.close_reader r)
    (fun () ->
      let corrupt detail =
        Apt_error.raise_
          (Apt_error.Corrupt_record
             { path = Aptfile.backing_path file; offset = 0; detail })
      in
      let expected =
        match Aptfile.read_next r with
        | Some { Node.attrs = [| Value.Int n |]; _ } -> n
        | Some _ | None ->
            corrupt "attribute-version store missing its header record"
      in
      let t = create () in
      let rec entries count =
        match Aptfile.read_next r with
        | None -> count
        | Some { Node.prod = node; sym = attr; attrs = [| value |] } ->
            Hashtbl.replace t (node, attr) value;
            entries (count + 1)
        | Some _ -> corrupt "malformed attribute-version record"
      in
      let count = entries 0 in
      if count <> expected then
        corrupt
          (Printf.sprintf
             "attribute-version store holds %d entries, its header says %d"
             count expected);
      t)
