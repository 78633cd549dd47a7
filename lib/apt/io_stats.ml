(* Counters are atomics: a tally may be shared by store layers running
   on several domains at once (the batch-evaluation pool), and a plain
   mutable-int increment would silently lose counts under that race. An
   uncontended atomic fetch-and-add costs a few nanoseconds — below the
   noise of the record encoding around every tally — so the
   single-threaded path is not measurably slower. *)

type t = {
  bytes_read : int Atomic.t;
  bytes_written : int Atomic.t;
  records_read : int Atomic.t;
  records_written : int Atomic.t;
  files_created : int Atomic.t;
  (* page-level counters (the paged store) *)
  pages_read : int Atomic.t;
  pages_written : int Atomic.t;
  pool_hits : int Atomic.t;
  pool_misses : int Atomic.t;
  prefetch_hits : int Atomic.t;
  seeks : int Atomic.t;
  (* resilience counters (retry/quarantine policy in Store_pager) *)
  retries : int Atomic.t;
  pages_quarantined : int Atomic.t;
  (* compression accounting (zip store layers) *)
  raw_bytes_read : int Atomic.t;
  raw_bytes_written : int Atomic.t;
}

let bump c n = ignore (Atomic.fetch_and_add c n : int)
let get = Atomic.get

(* The single field table: every counter appears here exactly once, and
   [fields]/[set_field]/[add]/[reset]/[to_json] are all derived from it,
   so a newly added counter cannot be silently dropped from any of them.
   (The property tests additionally pin the table's length against the
   record's runtime size.) *)
let field_specs : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ("bytes_read", (fun t -> get t.bytes_read), fun t v -> Atomic.set t.bytes_read v);
    ( "bytes_written",
      (fun t -> get t.bytes_written),
      fun t v -> Atomic.set t.bytes_written v );
    ( "records_read",
      (fun t -> get t.records_read),
      fun t v -> Atomic.set t.records_read v );
    ( "records_written",
      (fun t -> get t.records_written),
      fun t v -> Atomic.set t.records_written v );
    ( "files_created",
      (fun t -> get t.files_created),
      fun t v -> Atomic.set t.files_created v );
    ("pages_read", (fun t -> get t.pages_read), fun t v -> Atomic.set t.pages_read v);
    ( "pages_written",
      (fun t -> get t.pages_written),
      fun t v -> Atomic.set t.pages_written v );
    ("pool_hits", (fun t -> get t.pool_hits), fun t v -> Atomic.set t.pool_hits v);
    ( "pool_misses",
      (fun t -> get t.pool_misses),
      fun t v -> Atomic.set t.pool_misses v );
    ( "prefetch_hits",
      (fun t -> get t.prefetch_hits),
      fun t v -> Atomic.set t.prefetch_hits v );
    ("seeks", (fun t -> get t.seeks), fun t v -> Atomic.set t.seeks v);
    ("retries", (fun t -> get t.retries), fun t v -> Atomic.set t.retries v);
    ( "pages_quarantined",
      (fun t -> get t.pages_quarantined),
      fun t v -> Atomic.set t.pages_quarantined v );
    ( "raw_bytes_read",
      (fun t -> get t.raw_bytes_read),
      fun t v -> Atomic.set t.raw_bytes_read v );
    ( "raw_bytes_written",
      (fun t -> get t.raw_bytes_written),
      fun t v -> Atomic.set t.raw_bytes_written v );
  ]

let create () =
  {
    bytes_read = Atomic.make 0;
    bytes_written = Atomic.make 0;
    records_read = Atomic.make 0;
    records_written = Atomic.make 0;
    files_created = Atomic.make 0;
    pages_read = Atomic.make 0;
    pages_written = Atomic.make 0;
    pool_hits = Atomic.make 0;
    pool_misses = Atomic.make 0;
    prefetch_hits = Atomic.make 0;
    seeks = Atomic.make 0;
    retries = Atomic.make 0;
    pages_quarantined = Atomic.make 0;
    raw_bytes_read = Atomic.make 0;
    raw_bytes_written = Atomic.make 0;
  }

let fields t = List.map (fun (name, get, _) -> (name, get t)) field_specs

let set_field t name v =
  match
    List.find_opt (fun (n, _, _) -> String.equal n name) field_specs
  with
  | Some (_, _, set) -> set t v
  | None -> invalid_arg (Printf.sprintf "Io_stats.set_field: unknown counter %S" name)

let reset t = List.iter (fun (_, _, set) -> set t 0) field_specs

let add ~into t =
  List.iter (fun (_, get, set) -> set into (get into + get t)) field_specs

let total_bytes t = get t.bytes_read + get t.bytes_written
let total_pages t = get t.pages_read + get t.pages_written

let compression_ratio t =
  let raw_w = get t.raw_bytes_written and w = get t.bytes_written in
  if raw_w > 0 && w > 0 then Some (float_of_int raw_w /. float_of_int w)
  else None

let modeled_seconds t ~bytes_per_second =
  float_of_int (total_bytes t) /. bytes_per_second

let modeled_seconds_seek t ~bytes_per_second ~seek_seconds =
  modeled_seconds t ~bytes_per_second
  +. (float_of_int (get t.seeks) *. seek_seconds)

let to_json_value t =
  Lg_support.Json_out.Obj
    (List.map (fun (name, v) -> (name, Lg_support.Json_out.int v)) (fields t)
    @ [
        ( "compression_ratio",
          match compression_ratio t with
          | Some r -> Lg_support.Json_out.Num r
          | None -> Lg_support.Json_out.Null );
      ])

let to_json t = Lg_support.Json_out.to_string (to_json_value t)

(* Accumulate this tally into a metrics registry, one counter per field
   of the table — the registry's apt.* rows are a view over the same
   field table that add/reset/fields/to_json are derived from, so a new
   counter shows up in manifests without further wiring. *)
let publish ?(prefix = "apt.") t m =
  List.iter
    (fun (name, v) ->
      if v <> 0 then Lg_support.Metrics.incr m ~by:v (prefix ^ name))
    (fields t)
