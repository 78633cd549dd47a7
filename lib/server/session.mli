(** Compiled-grammar sessions and their cost-aware cache.

    A session is the expensive, immutable part of serving a job: a
    {!Linguist.Translator.t} — IR, evaluation plan, packed parse tables
    and scanner — built from a grammar source or taken ready-made from
    {!Lg_languages}. Building one costs seconds; every
    job that evaluates against the same grammar shares the same session,
    so a batch of N inputs compiles once and evaluates N times (the
    paper's one-grammar/many-translations economics).

    Sessions are keyed by a {!digest} of what they were built from and
    held in a bounded cache. The cache is concurrency-aware: when
    several pool workers request the same absent key at once, exactly one
    builds while the rest block until the session is ready
    ([Building]/[Ready] states under one mutex+condition). A build that
    raises releases its key — waiters retry, and a deterministic grammar
    error simply fails each requester. Entries under construction are
    never evicted.

    {b Eviction is cost-aware}, not plain LRU: each entry's weight is
    its measured build seconds plus a term for its packed LALR table bytes
    ([lalr.table_bytes] — what a rebuild would have to reconstruct), and
    the cache runs the GreedyDual policy: an entry's priority is the
    global floor plus its weight, refreshed on every hit; eviction takes
    the minimum-priority entry and raises the floor to it. Cheap stale
    entries go first; an expensive session must be idle much longer
    before it yields its slot. An optional TTL expires entries that have
    sat untouched regardless of weight.

    {b Quarantine} mirrors the APT layer's page quarantine one level
    up: the serving layer {!strike}s a digest each time one of its jobs
    takes a worker down (domain crash, watchdog timeout). At
    [quarantine_after] strikes (default 3) the digest is quarantined —
    its resident entry is dropped and {!find_or_build} raises a typed
    {!Server_error.Session_quarantined} without building — so one bad
    grammar cannot consume the fleet one worker at a time. {!evict} (or
    {!clear}) lifts the quarantine along with the entry.

    The cache also parks {b per-document incremental state}
    ({!Lg_incremental.Incr.state}) next to the session that owns it:
    [update] ops fetch a {!doc_slot} keyed by (session digest, document
    id). Slots die with their session — evicting a session drops its
    documents — and are themselves bounded ([doc_capacity], stalest
    first).

    {b Tenants.} The cache is the one per-tenant table: a {!tenant}
    record per digest ever requested holds its cache traffic, strikes
    and the job accounting the serving layer {!charge}s, and outlives
    the cached entry; {!Ledger} persists the accounting columns. *)

type t = {
  s_digest : string;
  s_label : string;  (** human-readable: ["translator:desk_calc.ag"], … *)
  s_translator : Linguist.Translator.t;
      (** tables + plan + scanner + name table — safe to share across
          domains *)
}

val digest : kind:string -> source:string -> string
(** Stable key: an MD5 over the session kind and the full source text it
    compiles (two grammars differing in one byte get distinct
    sessions). *)

(** {1 The cache} *)

type cache

val create_cache :
  ?capacity:int ->
  ?doc_capacity:int ->
  ?ttl:float ->
  ?quarantine_after:int ->
  ?clock:(unit -> float) ->
  ?metrics:Lg_support.Metrics.t ->
  unit ->
  cache
(** [capacity] (default 8, at least 1) bounds resident sessions;
    [doc_capacity] (default 128) bounds parked per-document states
    across all sessions. [ttl] (seconds; default none) expires entries
    idle longer than that. [quarantine_after] (default 3, at least 1)
    is the worker-fatal strike count at which a digest is quarantined.
    [clock] (default [Unix.gettimeofday]) is injectable for
    deterministic TTL tests. [metrics] (default null) counts every
    completed build as [server.session_builds] — the per-worker
    "each grammar compiled exactly once" signal the distributed
    coordinator's placement checks read. *)

val length : cache -> int
val capacity : cache -> int

val stats : cache -> int * int
(** [(hits, misses)] so far — misses count builds started. *)

val eviction_stats : cache -> int * int
(** [(evictions, ttl_expirations)] so far. *)

val find_or_build :
  cache ->
  ?weight:float ->
  digest:string ->
  label:string ->
  build:(unit -> Linguist.Translator.t) ->
  unit ->
  t
(** The session for [digest], building it with [build] on a miss. Blocks
    while another worker is building the same digest. Re-raises whatever
    [build] raises. [weight] overrides the measured rebuild-cost weight
    (build seconds + table bytes / 10{^7}) — deterministic tests pin
    it.
    @raise Server_error.Error
      ([Session_quarantined]) when the digest has accumulated
      [quarantine_after] strikes — without looking up or building. *)

val evict : cache -> digest:string -> bool
(** Drop one Ready entry (and its parked documents) {e and} lift any
    quarantine on the digest; [false] when the digest had neither an
    entry nor strikes, or is still building. *)

val clear : cache -> int
(** Drop every Ready entry, all parked documents and all strike
    records; returns how many sessions were dropped. Entries under
    construction survive. *)

(** {1 Quarantine} *)

val strike : cache -> digest:string -> label:string -> int
(** Record one worker-fatal failure against [digest] (the serving layer
    calls this when a job crashes its worker or blows its deadline) and
    return the new strike count. Crossing the threshold drops the
    digest's resident entry. *)

val quarantine_threshold : cache -> int

val refuse_if_quarantined : cache -> digest:string -> unit
(** @raise Server_error.Error
      ([Session_quarantined], its strikes and label read under one lock)
      when [digest] is quarantined; counts below the threshold pass. *)

val quarantined : cache -> (string * string * int) list
(** Every quarantined digest as [(digest, label, strikes)], sorted by
    label — the [health] serve op's listing. *)

type info = {
  i_digest : string;
  i_label : string;
  i_weight : float;
  i_build_seconds : float;
  i_age : float;  (** seconds since the build finished starting *)
  i_idle : float;  (** seconds since the last hit *)
  i_docs : int;  (** parked per-document states *)
}

val entries_info : cache -> info list
(** A snapshot of every Ready entry, sorted by label — the [sessions]
    serve op. *)

(** {1 Tenants} *)

type tenant = {
  t_label : string;  (** the last non-empty label charged or struck *)
  t_jobs : int;
  t_ok : int;
  t_failures : (int * int) list;
      (** exit code -> count, one bucket per code, ascending *)
  t_queue_wait : float;  (** seconds, summed over charged jobs *)
  t_service : float;
  t_hits : int;
  t_misses : int;
  t_evictions : int;
  t_strikes : int;  (** since the last {!evict} or {!clear} *)
}

val no_tenant : tenant
(** Every count zero, the label empty. *)

val charge :
  cache ->
  digest:string ->
  label:string ->
  ok:bool ->
  exit_code:int ->
  queue_wait:float ->
  service:float ->
  unit
(** Attribute one finished job to [digest]. A failed job bumps its
    [exit_code] bucket; supervision failures (a crashed worker cannot
    report its split) pass zero time totals. *)

val merge_tenants : cache -> (string * tenant) list -> unit
(** Add each row's accounting columns (jobs, ok, failures, seconds) to
    its digest's record, all under one lock; a non-empty label replaces
    the record's. The rows' cache and strike columns are ignored. *)

val tenants : cache -> (string * tenant * bool) list
(** [(digest, row, quarantined)] for every digest charged at least one
    job, sorted by label then digest, all read under one lock — the
    [tenants] serve op and the persisted ledger. *)

(** {1 Per-document incremental state} *)

type doc_slot = {
  doc_lock : Mutex.t;
      (** serialises updates to one document; hold it across the whole
          {!Lg_incremental.Incr.update} *)
  mutable doc_state : Lg_incremental.Incr.state option;
  mutable doc_last_use : int;
}

val doc_slot : cache -> digest:string -> doc:string -> doc_slot
(** The (create-on-first-use) slot for a document of a session. *)

val doc_count : cache -> int

(** {1 Standard sessions} *)

val translator_session :
  cache ->
  ?options:Linguist.Driver.options ->
  file:string ->
  source:string ->
  unit ->
  t
(** A session for an arbitrary [.ag] source — compiled
    with the grammar-derived symbolic scanner
    ({!Linguist.Translator.of_source}), keyed by the source's content
    digest. This is how ["grammar"]-tenant translate/update jobs share
    one compilation per distinct grammar text (the corpus multi-tenant
    path; see [docs/CORPUS.md]).
    @raise Failure with the rendered diagnostics when the grammar has
    errors. *)

val language_session : cache -> string -> t
(** A session for a built-in language — one of
    {!language_names}: ["desk_calc"], ["assembler"], ["knuth_binary"],
    ["pascal"], or ["linguist"] (the self-hosted analyzer of [.ag]
    sources, experiment E1's workload).
    @raise Failure on an unknown name. *)

val language_names : unit -> string list
