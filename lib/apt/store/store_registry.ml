(* The store registry: name -> configured store. The builtin table is
   populated here (not by side effects in the implementation modules, so
   selective linking can never lose a backend); [register] is the
   extension point for out-of-tree stores, used e.g. by the test suite to
   plug in a custom [Apt_store.t]. *)

type entry = {
  description : string;
  make : Apt_store.config -> Apt_store.t;
}

let table : (string, entry) Hashtbl.t = Hashtbl.create 8

let register ~name ~description make =
  Hashtbl.replace table name { description; make }

let () =
  register ~name:"mem"
    ~description:"in-memory buffer, whole-record framing (the paper's virtual-memory answer)"
    Store_mem.make;
  register ~name:"paged"
    ~description:
      "temp file through an LRU page pool, reading ahead on sequential scans"
    Store_paged.make;
  register ~name:"zip"
    ~description:"front-coded block compression layered over the paged store"
    (fun c -> Store_zip.layer c (Store_paged.make c))

let names () = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])

let description name =
  match Hashtbl.find_opt table name with
  | Some e -> Some e.description
  | None -> None

let find ?(config = Apt_store.default_config) name =
  match Hashtbl.find_opt table name with
  | Some e -> e.make config
  | None ->
      failwith
        (Printf.sprintf "unknown APT store %S (registered: %s)" name
           (String.concat ", " (names ())))
