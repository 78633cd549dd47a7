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

(* per-digest cache traffic, the [tenants] serve op's cache column;
   kept forever (a counter triple per digest ever served is cheap) so
   accounting survives the entry's eviction *)
type tstat = {
  mutable ts_hits : int;
  mutable ts_misses : int;
  mutable ts_evictions : int;
}

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
  strikes : (string, int * string) Hashtbl.t;  (* digest -> strikes, label *)
  tstats : (string, tstat) Hashtbl.t;  (* digest -> cache traffic *)
  metrics : Lg_support.Metrics.t;  (* server.session_builds *)
  mutable floor : float;  (* GreedyDual inflation *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
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
    strikes = Hashtbl.create 8;
    tstats = Hashtbl.create 16;
    metrics;
    floor = 0.0;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    expirations = 0;
  }

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let length c = locked c (fun () -> Hashtbl.length c.entries)
let capacity c = c.cap
let stats c = locked c (fun () -> (c.hits, c.misses))
let eviction_stats c = locked c (fun () -> (c.evictions, c.expirations))

(* under the lock *)
let tstat c digest =
  match Hashtbl.find_opt c.tstats digest with
  | Some s -> s
  | None ->
      let s = { ts_hits = 0; ts_misses = 0; ts_evictions = 0 } in
      Hashtbl.replace c.tstats digest s;
      s

let tenant_stats c ~digest =
  locked c (fun () ->
      match Hashtbl.find_opt c.tstats digest with
      | Some s -> (s.ts_hits, s.ts_misses, s.ts_evictions)
      | None -> (0, 0, 0))

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
        remove_entry c key;
        c.evictions <- c.evictions + 1;
        (tstat c key).ts_evictions <- (tstat c key).ts_evictions + 1;
        c.floor <- Float.max c.floor credit
    | None -> ()
  end

(* The rebuild-cost weight: measured build time plus a term for the
   parse tables the translator would have to reconstruct. *)
let default_weight ~build_seconds translator =
  let bytes = Lg_lalr.Tables.table_bytes (Linguist.Translator.parse_tables translator) in
  build_seconds +. (float_of_int bytes /. 1.0e7)

(* under the lock *)
let quarantined_strikes c digest =
  match Hashtbl.find_opt c.strikes digest with
  | Some (n, label) when n >= c.quarantine_after -> Some (n, label)
  | _ -> None

let strike c ~digest ~label =
  locked c (fun () ->
      let n =
        match Hashtbl.find_opt c.strikes digest with
        | Some (n, _) -> n + 1
        | None -> 1
      in
      Hashtbl.replace c.strikes digest (n, label);
      if n >= c.quarantine_after then
        (* the quarantined session's resident entry (if any) is dropped:
           a payload whose jobs keep killing workers is not worth its
           slot, and requests are refused before the lookup anyway *)
        remove_entry c digest;
      n)

let quarantine_threshold c = c.quarantine_after

let is_quarantined c ~digest =
  locked c (fun () -> quarantined_strikes c digest <> None)

let strike_count c ~digest =
  locked c (fun () ->
      match Hashtbl.find_opt c.strikes digest with
      | Some (n, _) -> n
      | None -> 0)

let quarantined c =
  locked c (fun () ->
      Hashtbl.fold
        (fun digest (n, label) acc ->
          if n >= c.quarantine_after then (digest, label, n) :: acc else acc)
        c.strikes []
      |> List.sort (fun (_, a, _) (_, b, _) -> compare a b))

let find_or_build c ?weight ~digest ~label ~build () =
  let role =
    locked c @@ fun () ->
    (match quarantined_strikes c digest with
    | Some (strikes, qlabel) ->
        Server_error.raise_
          (Server_error.Session_quarantined { digest; label = qlabel; strikes })
    | None -> ());
    sweep_expired c;
    let rec decide () =
      match Hashtbl.find_opt c.entries digest with
      | Some (Ready r) ->
          c.tick <- c.tick + 1;
          r.last_use <- c.tick;
          r.last_touch <- c.clock ();
          r.credit <- c.floor +. r.weight;
          c.hits <- c.hits + 1;
          (tstat c digest).ts_hits <- (tstat c digest).ts_hits + 1;
          `Hit r.session
      | Some Building ->
          Condition.wait c.turned c.lock;
          decide ()
      | None ->
          c.misses <- c.misses + 1;
          (tstat c digest).ts_misses <- (tstat c digest).ts_misses + 1;
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
      let struck = Hashtbl.mem c.strikes digest in
      Hashtbl.remove c.strikes digest;
      match Hashtbl.find_opt c.entries digest with
      | Some (Ready _) ->
          remove_entry c digest;
          c.evictions <- c.evictions + 1;
          (tstat c digest).ts_evictions <- (tstat c digest).ts_evictions + 1;
          true
      | Some Building | None -> struck)

let clear c =
  locked c (fun () ->
      Hashtbl.reset c.strikes;
      let ready =
        Hashtbl.fold
          (fun key entry acc ->
            match entry with Ready _ -> key :: acc | Building -> acc)
          c.entries []
      in
      List.iter
        (fun key ->
          remove_entry c key;
          (tstat c key).ts_evictions <- (tstat c key).ts_evictions + 1)
        ready;
      c.evictions <- c.evictions + List.length ready;
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
