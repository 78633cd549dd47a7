(* The APT file façade: node codec + record accounting over a pluggable
   byte-record store ([Apt_store]) named in the store registry. *)

type backend = { store : string; config : Apt_store.config }
type file = Apt_store.file

type writer = {
  w_stats : Io_stats.t option;
  w_sizes : (Lg_support.Metrics.t * Lg_support.Metrics.tally) option;
      (** record sizes, for the registry ambient at creation *)
  buf : Buffer.t;  (** per-record scratch *)
  inner_w : Apt_store.writer;
}

type reader = { r_stats : Io_stats.t option; inner_r : Apt_store.reader }

let backend_of_store_name ?(config = Apt_store.default_config) store =
  ignore (Store_registry.find ~config store) (* raises with the known names *);
  { store; config }

let writer ?stats backend =
  (match stats with
  | Some s -> Io_stats.bump s.Io_stats.files_created 1
  | None -> ());
  let store = Store_registry.find ~config:backend.config backend.store in
  let m = Lg_support.Metrics.ambient () in
  let w_sizes = if Lg_support.Metrics.enabled m then Some (m, Lg_support.Metrics.tally ()) else None in
  { w_stats = stats; w_sizes; buf = Buffer.create 256; inner_w = store.Apt_store.start stats }

let write w node =
  Buffer.clear w.buf;
  Node.encode w.buf node;
  let payload = Buffer.contents w.buf in
  w.inner_w.Apt_store.put payload;
  (* record-size distribution (§IV's "how big are the APT records"
     accounting), tallied here and published once per file *)
  (match w.w_sizes with
  | Some (_, sizes) -> Lg_support.Metrics.tally_int sizes (String.length payload)
  | None -> ());
  match w.w_stats with
  | Some s -> Io_stats.bump s.Io_stats.records_written 1
  | None -> ()

let close_writer w =
  (match w.w_sizes with
  | Some (m, sizes) -> Lg_support.Metrics.publish_tally m "apt.record_bytes" sizes
  | None -> ());
  w.inner_w.Apt_store.close ()

let abort_writer w = w.inner_w.Apt_store.abort ()

let size_bytes (f : file) = f.Apt_store.f_size
let record_count (f : file) = f.Apt_store.f_records
let store_name (f : file) = f.Apt_store.f_store
let backing_path (f : file) = f.Apt_store.f_path

let read_forward ?stats (f : file) =
  { r_stats = stats; inner_r = f.Apt_store.f_read stats `Forward }

let read_backward ?stats (f : file) =
  { r_stats = stats; inner_r = f.Apt_store.f_read stats `Backward }

let read_next r =
  match r.inner_r.Apt_store.next () with
  | None -> None
  | Some payload ->
      (match r.r_stats with
      | Some s -> Io_stats.bump s.Io_stats.records_read 1
      | None -> ());
      Some (Node.decode payload)

let close_reader r = r.inner_r.Apt_store.close_reader ()

let to_list ?stats f =
  let r = read_forward ?stats f in
  let rec go acc =
    match read_next r with Some n -> go (n :: acc) | None -> List.rev acc
  in
  let result = go [] in
  close_reader r;
  result

let of_list ?stats backend nodes =
  let w = writer ?stats backend in
  List.iter (write w) nodes;
  close_writer w

let dispose (f : file) = f.Apt_store.f_dispose ()
