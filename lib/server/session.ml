(* Building/Ready entries under one mutex: the first requester of a key
   inserts [Building] and compiles outside the lock; latecomers wait on
   the condition until the slot turns [Ready] (or vanishes, when the
   build raised — then one of them becomes the next builder).

   Eviction is cost-aware (GreedyDual): every Ready entry carries a
   credit of [floor + weight], where the weight estimates what evicting
   it would cost to rebuild (measured build seconds plus a term for the
   LALR table bytes). Eviction removes the minimum-credit entry and
   raises the floor to that credit, so recency and rebuild cost trade
   off against each other instead of recency alone deciding. An
   optional TTL expires entries that have sat untouched.

   Quarantine: the serving layer reports a strike against a digest each
   time one of its jobs takes a worker down (crash or watchdog
   timeout). At [quarantine_after] strikes the digest is quarantined —
   its cached entry is dropped and every further request raises a typed
   Server_error until [evict] (or [clear]) lifts it — so one bad
   grammar cannot consume the fleet one worker at a time. *)

type t = {
  s_digest : string;
  s_label : string;
  s_translator : Linguist.Translator.t;
}

let digest ~kind ~source = Digest.to_hex (Digest.string (kind ^ "\x00" ^ source))

type ready = {
  session : t;
  mutable last_use : int;  (* monotonic tick, diagnostics only *)
  mutable last_touch : float;  (* clock seconds, drives the TTL *)
  mutable credit : float;  (* GreedyDual priority *)
  built_at : float;
  build_seconds : float;
  weight : float;
}

type entry = Building | Ready of ready

(* Per-document incremental state parked next to the session that owns
   it; the slot mutex serialises updates to one document while leaving
   other documents of the same session free. *)
type doc_slot = {
  doc_lock : Mutex.t;
  mutable doc_state : Lg_incremental.Incr.state option;
  mutable doc_last_use : int;
}

type tenant = {
  t_label : string;
  t_jobs : int;
  t_ok : int;
  t_failures : (int * int) list;
  t_queue_wait : float;
  t_service : float;
  t_hits : int;
  t_misses : int;
  t_evictions : int;
  t_strikes : int;
}

let no_tenant =
  {
    t_label = "";
    t_jobs = 0;
    t_ok = 0;
    t_failures = [];
    t_queue_wait = 0.0;
    t_service = 0.0;
    t_hits = 0;
    t_misses = 0;
    t_evictions = 0;
    t_strikes = 0;
  }

(* insert one [exit code -> count] bucket, keeping codes ascending *)
let rec bump_failure failures ((code, n) as bucket) =
  match failures with
  | (c, m) :: rest when c = code -> (c, m + n) :: rest
  | ((c, _) as b) :: rest when c < code -> b :: bump_failure rest bucket
  | _ -> bucket :: failures

type cache = {
  lock : Mutex.t;
  turned : Condition.t;  (* signalled whenever an entry changes state *)
  entries : (string, entry) Hashtbl.t;
  docs : (string * string, doc_slot) Hashtbl.t;  (* (digest, doc) *)
  cap : int;
  doc_cap : int;
  ttl : float option;
  clock : unit -> float;
  quarantine_after : int;
  tenants : (string, tenant) Hashtbl.t;  (* every digest ever requested *)
  metrics : Lg_support.Metrics.t;  (* server.session_builds *)
  mutable floor : float;  (* GreedyDual inflation *)
  mutable tick : int;
  mutable expirations : int;
}

let create_cache ?(capacity = 8) ?(doc_capacity = 128) ?ttl
    ?(quarantine_after = 3) ?(clock = Unix.gettimeofday)
    ?(metrics = Lg_support.Metrics.null) () =
  {
    lock = Mutex.create ();
    turned = Condition.create ();
    entries = Hashtbl.create 16;
    docs = Hashtbl.create 16;
    cap = max 1 capacity;
    doc_cap = max 1 doc_capacity;
    ttl;
    clock;
    quarantine_after = max 1 quarantine_after;
    tenants = Hashtbl.create 16;
    metrics;
    floor = 0.0;
    tick = 0;
    expirations = 0;
  }

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let length c = locked c (fun () -> Hashtbl.length c.entries)
let capacity c = c.cap

(* under the lock *)
let tenant c digest =
  Option.value (Hashtbl.find_opt c.tenants digest) ~default:no_tenant

let account c digest f = Hashtbl.replace c.tenants digest (f (tenant c digest))

(* under the lock: the cache-wide count is the sum over digests *)
let sum c count = Hashtbl.fold (fun _ t n -> n + count t) c.tenants 0

let stats c =
  locked c (fun () -> (sum c (fun t -> t.t_hits), sum c (fun t -> t.t_misses)))

let eviction_stats c =
  locked c (fun () -> (sum c (fun t -> t.t_evictions), c.expirations))

(* the rows' accounting columns add; a non-empty label replaces the old *)
let merge_tenants c rows =
  locked c @@ fun () ->
  List.iter
    (fun (digest, u) ->
      account c digest (fun t ->
          {
            t with
            t_label = (if u.t_label = "" then t.t_label else u.t_label);
            t_jobs = t.t_jobs + u.t_jobs;
            t_ok = t.t_ok + u.t_ok;
            t_failures = List.fold_left bump_failure t.t_failures u.t_failures;
            t_queue_wait = t.t_queue_wait +. u.t_queue_wait;
            t_service = t.t_service +. u.t_service;
          }))
    rows

let charge c ~digest ~label ~ok ~exit_code ~queue_wait ~service =
  merge_tenants c
    [
      ( digest,
        {
          no_tenant with
          t_label = label;
          t_jobs = 1;
          t_ok = (if ok then 1 else 0);
          t_failures = (if ok then [] else [ (exit_code, 1) ]);
          t_queue_wait = queue_wait;
          t_service = service;
        } );
    ]

let tenants c =
  locked c (fun () ->
      Hashtbl.fold
        (fun digest t acc ->
          if t.t_jobs > 0 then
            (digest, t, t.t_strikes >= c.quarantine_after) :: acc
          else acc)
        c.tenants [])
  |> List.sort (fun (da, a, _) (db, b, _) ->
         compare (a.t_label, da) (b.t_label, db))

(* under the lock *)
let drop_docs c digest =
  let dead =
    Hashtbl.fold
      (fun ((d, _) as key) _ acc -> if String.equal d digest then key :: acc else acc)
      c.docs []
  in
  List.iter (Hashtbl.remove c.docs) dead

(* under the lock *)
let remove_entry c key =
  Hashtbl.remove c.entries key;
  drop_docs c key

(* under the lock: an eviction proper, charged to the digest *)
let evict_entry c key =
  remove_entry c key;
  account c key (fun t -> { t with t_evictions = t.t_evictions + 1 })

(* under the lock: expire Ready entries that outlived the TTL *)
let sweep_expired c =
  match c.ttl with
  | None -> ()
  | Some ttl ->
      let now = c.clock () in
      let dead =
        Hashtbl.fold
          (fun key entry acc ->
            match entry with
            | Ready r when now -. r.last_touch > ttl -> key :: acc
            | Ready _ | Building -> acc)
          c.entries []
      in
      List.iter
        (fun key ->
          remove_entry c key;
          c.expirations <- c.expirations + 1)
        dead

(* under the lock *)
let evict_if_full c =
  sweep_expired c;
  let ready = ref 0 in
  Hashtbl.iter
    (fun _ -> function Ready _ -> incr ready | Building -> ())
    c.entries;
  if !ready >= c.cap then begin
    (* minimum credit; ties broken by recency, so uniform weights
       degrade to exact LRU *)
    let cheapest = ref None in
    Hashtbl.iter
      (fun key -> function
        | Building -> ()
        | Ready r -> (
            match !cheapest with
            | Some (_, credit, use)
              when credit < r.credit
                   || (credit = r.credit && use <= r.last_use) ->
                ()
            | _ -> cheapest := Some (key, r.credit, r.last_use)))
      c.entries;
    match !cheapest with
    | Some (key, credit, _) ->
        evict_entry c key;
        c.floor <- Float.max c.floor credit
    | None -> ()
  end

(* The rebuild-cost weight: measured build time plus a term for the
   parse tables the translator would have to reconstruct. *)
let default_weight ~build_seconds translator =
  let bytes = Lg_lalr.Tables.table_bytes (Linguist.Translator.parse_tables translator) in
  build_seconds +. (float_of_int bytes /. 1.0e7)

(* under the lock *)
let refuse_quarantined c digest =
  let t = tenant c digest in
  if t.t_strikes >= c.quarantine_after then
    Server_error.raise_
      (Server_error.Session_quarantined
         { digest; label = t.t_label; strikes = t.t_strikes })

let strike c ~digest ~label =
  locked c (fun () ->
      let t = tenant c digest in
      let n = t.t_strikes + 1 in
      Hashtbl.replace c.tenants digest
        { t with t_label = label; t_strikes = n };
      if n >= c.quarantine_after then
        (* the quarantined session's resident entry (if any) is dropped:
           a payload whose jobs keep killing workers is not worth its
           slot, and requests are refused before the lookup anyway *)
        remove_entry c digest;
      n)

let quarantine_threshold c = c.quarantine_after

let refuse_if_quarantined c ~digest =
  locked c (fun () -> refuse_quarantined c digest)

let quarantined c =
  locked c (fun () ->
      Hashtbl.fold
        (fun digest t acc ->
          if t.t_strikes >= c.quarantine_after then
            (digest, t.t_label, t.t_strikes) :: acc
          else acc)
        c.tenants []
      |> List.sort (fun (_, a, _) (_, b, _) -> compare a b))

let find_or_build c ?weight ~digest ~label ~build () =
  let role =
    locked c @@ fun () ->
    refuse_quarantined c digest;
    sweep_expired c;
    let rec decide () =
      match Hashtbl.find_opt c.entries digest with
      | Some (Ready r) ->
          c.tick <- c.tick + 1;
          r.last_use <- c.tick;
          r.last_touch <- c.clock ();
          r.credit <- c.floor +. r.weight;
          account c digest (fun t -> { t with t_hits = t.t_hits + 1 });
          `Hit r.session
      | Some Building ->
          Condition.wait c.turned c.lock;
          decide ()
      | None ->
          account c digest (fun t -> { t with t_misses = t.t_misses + 1 });
          Hashtbl.replace c.entries digest Building;
          `Build
    in
    decide ()
  in
  (* the serving layer's per-request tracer is this domain's ambient: a
     hit is a zero-width marker, a build wraps the whole compilation *)
  let tr = Lg_support.Trace.ambient () in
  match role with
  | `Hit session ->
      Lg_support.Trace.span tr ~cat:"session"
        ~args:[ ("digest", Lg_support.Trace.Str digest) ]
        "session.hit"
        (fun () -> ());
      session
  | `Build -> (
      let started = c.clock () in
      match
        Lg_support.Trace.span tr ~cat:"session"
          ~args:[ ("digest", Lg_support.Trace.Str digest) ]
          "session.build" build
      with
      | translator ->
          let build_seconds = c.clock () -. started in
          let weight =
            match weight with
            | Some w -> w
            | None -> default_weight ~build_seconds translator
          in
          let session =
            { s_digest = digest; s_label = label; s_translator = translator }
          in
          (* every completed build counts here — the coordinator's
             builds-per-grammar placement check reads this per worker *)
          Lg_support.Metrics.incr c.metrics "server.session_builds";
          locked c (fun () ->
              Hashtbl.remove c.entries digest;
              evict_if_full c;
              c.tick <- c.tick + 1;
              Hashtbl.replace c.entries digest
                (Ready
                   {
                     session;
                     last_use = c.tick;
                     last_touch = c.clock ();
                     credit = c.floor +. weight;
                     built_at = started;
                     build_seconds;
                     weight;
                   });
              Condition.broadcast c.turned);
          session
      | exception e ->
          locked c (fun () ->
              Hashtbl.remove c.entries digest;
              Condition.broadcast c.turned);
          raise e)

let evict c ~digest =
  locked c (fun () ->
      let struck = (tenant c digest).t_strikes > 0 in
      if struck then account c digest (fun t -> { t with t_strikes = 0 });
      match Hashtbl.find_opt c.entries digest with
      | Some (Ready _) ->
          evict_entry c digest;
          true
      | Some Building | None -> struck)

let clear c =
  locked c (fun () ->
      Hashtbl.filter_map_inplace
        (fun _ t -> Some { t with t_strikes = 0 })
        c.tenants;
      let ready =
        Hashtbl.fold
          (fun key entry acc ->
            match entry with Ready _ -> key :: acc | Building -> acc)
          c.entries []
      in
      List.iter (evict_entry c) ready;
      List.length ready)

type info = {
  i_digest : string;
  i_label : string;
  i_weight : float;
  i_build_seconds : float;
  i_age : float;
  i_idle : float;
  i_docs : int;
}

let entries_info c =
  locked c (fun () ->
      let now = c.clock () in
      let docs_of digest =
        Hashtbl.fold
          (fun (d, _) _ n -> if String.equal d digest then n + 1 else n)
          c.docs 0
      in
      Hashtbl.fold
        (fun key entry acc ->
          match entry with
          | Building -> acc
          | Ready r ->
              {
                i_digest = key;
                i_label = r.session.s_label;
                i_weight = r.weight;
                i_build_seconds = r.build_seconds;
                i_age = now -. r.built_at;
                i_idle = now -. r.last_touch;
                i_docs = docs_of key;
              }
              :: acc)
        c.entries []
      |> List.sort (fun a b -> compare a.i_label b.i_label))

(* under the lock: bound the per-cache document population *)
let evict_stale_doc c =
  if Hashtbl.length c.docs > c.doc_cap then begin
    let stalest = ref None in
    Hashtbl.iter
      (fun key slot ->
        match !stalest with
        | Some (_, age) when age <= slot.doc_last_use -> ()
        | _ -> stalest := Some (key, slot.doc_last_use))
      c.docs;
    match !stalest with
    | Some (key, _) -> Hashtbl.remove c.docs key
    | None -> ()
  end

let doc_slot c ~digest ~doc =
  locked c (fun () ->
      c.tick <- c.tick + 1;
      match Hashtbl.find_opt c.docs (digest, doc) with
      | Some slot ->
          slot.doc_last_use <- c.tick;
          slot
      | None ->
          let slot =
            { doc_lock = Mutex.create (); doc_state = None; doc_last_use = c.tick }
          in
          Hashtbl.replace c.docs (digest, doc) slot;
          evict_stale_doc c;
          slot)

let doc_count c = locked c (fun () -> Hashtbl.length c.docs)

let translator_session c ?options ~file ~source () =
  let key = digest ~kind:"translator" ~source in
  find_or_build c ~digest:key
    ~label:("translator:" ^ Filename.basename file)
    ~build:(fun () ->
      match
        Linguist.Translator.of_source ?options ~ag_source:source ~file ()
      with
      | Ok t -> t
      | Error diag ->
          failwith (Linguist.Listing.errors_only ~source ~file diag))
    ()

let languages :
    (string * (unit -> Linguist.Translator.t)) list =
  [
    ("desk_calc", Lg_languages.Desk_calc.translator);
    ("assembler", Lg_languages.Assembler.translator);
    ("knuth_binary", Lg_languages.Knuth_binary.translator);
    ("pascal", Lg_languages.Pascal_ag.translator);
    ("linguist", Lg_languages.Linguist_ag.translator);
  ]

let language_names () = List.map fst languages

let language_session c name =
  match List.assoc_opt name languages with
  | None ->
      failwith
        (Printf.sprintf "unknown language %S (expected one of %s)" name
           (String.concat ", " (language_names ())))
  | Some make ->
      let key = digest ~kind:"language" ~source:name in
      find_or_build c ~digest:key ~label:("language:" ^ name)
        ~build:make
        ()
