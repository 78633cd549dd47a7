(** The evaluation service's socket front-end: [linguist serve].

    Listens on a Unix-domain socket — and, with [?tcp], on a TCP
    endpoint too, which is how fabric worker hosts join a
    {!Lg_fabric.Coordinator} fleet — and serves length-prefixed JSON
    requests against one shared {!Pool} and {!Session} cache — the
    long-running form of [linguist batch] for callers that want to pay
    grammar compilation once and stream evaluation requests at it.
    Both listeners feed the same connection loop: the protocol is
    transport-agnostic (see {!Transport} and [docs/FABRIC.md]).

    {b Framing}: every message (both directions) is a 4-byte big-endian
    payload length followed by that many bytes of JSON. Payloads above
    {!max_frame} are refused.

    {b Trace propagation}: any request may carry a ["trace"] member — an
    opaque client-minted id (the {!request} client mints one per logical
    request with {!mint_trace_id}; retries reuse it). The server opens a
    per-request span tree ([request:<op>] › [queue.wait] › [service] ›
    session/chaos/pass spans › [response.write]) tagged with that id,
    absorbs it into the run-wide tracer ([serve --trace-out]), and echoes
    the id back as a ["trace"] member on [job]/[update] responses. See
    [docs/OBSERVABILITY.md].

    {b Requests} (the ["op"] member selects):
    - [{"op":"ping"}] → [{"ok":true,"server":"linguist","protocol":1}]
    - [{"op":"metrics"}] → [{"ok":true,"metrics":{...}}] — a snapshot of
      the shared registry (the [server.*] series and whatever the jobs
      published), histograms carrying derived [p50]/[p95]/[p99] members.
      With ["format":"prometheus"] the snapshot comes instead as one
      ["prometheus"] string member in text exposition format.
    - [{"op":"job","job":{...}}] — one {!Jobfile} entry (same fields as
      a jobfile's [jobs] element); the response is the job's result
      record ({!Batch.outcome}) with [{"ok":true/false,...}]. When the
      queue is at capacity the request is {e rejected immediately}:
      [{"ok":false,"error":"saturated","queue_depth":N,"capacity":M}] —
      backpressure is the client's signal to back off and retry, which
      the default {!request} client does for you (see below). A job
      carries its [deadline] (or inherits the server's [--deadline]
      default); over budget, crashing its worker, or naming a
      quarantined tenant fails it with the typed exit codes 50/51/52
      ({!Server_error}) in the outcome record.
    - [{"op":"health"}] → [{"ok":true,"status":"serving","workers":N,
      "workers_live":N,"workers_parked":N,"worker_restarts":N,
      "queue_depth":N,"queue_peak":N,"queue_capacity":N,"sessions":N,
      "quarantined":[{"digest":..,"label":..,"strikes":N}],
      "uptime_seconds":S}] — the readiness probe, with the worker-fleet
      and queue high-water columns the [top] dashboard renders. While
      draining it answers [{"ok":false,"error":"draining"}], so the
      CLI's exit code doubles as the probe result.
    - [{"op":"tenants"}] → [{"ok":true,"tenants":[...]}] — per-tenant
      (per session digest) accounting: one row per digest ever served
      with [jobs]/[ok] counts, [failures] keyed by exit class,
      [queue_wait_seconds]/[service_seconds] totals, the session cache's
      [hits]/[misses]/[evictions] for that digest, and the quarantine
      [strikes]/[quarantined] columns. Rows are sorted by label.
    - [{"op":"drain"}] → [{"ok":true,"draining":true,...}]; from then on
      [job]/[fabric_job]/[update] requests are refused with
      [{"ok":false,"error":"draining"}] while accepted work finishes.
      [ping]/[health]/[metrics]/[shutdown] still answer — [drain] then
      [shutdown] is the graceful stop.
    - [{"op":"update","language":L,"source":S,"doc":D}] — incremental
      re-translation of the inline source text [S] under language [L]
      (see [docs/INCREMENTAL.md]). [doc] (optional) names the editor
      buffer: successive updates to the same doc diff against its cached
      tree and re-fire only the edit's consequences — when the server
      runs with incremental mode on; otherwise each update evaluates
      from scratch (still correct). Response:
      [{"ok":true,"session":digest,"doc":D,"outputs":{...},
      "tree_size":N,"incremental":{"kind":"fresh"|"incremental"|
      "fallback",...}}]. The op runs as an interactive-lane
      {!Jobfile} [update] job with id ["update:D"] and file [D], through
      the same pipeline as [job]: quarantine and chaos gates, deadline,
      tenant accounting. A failed update answers the job's result
      record, typed [exit] included.
    - [{"op":"sessions"}] → the session cache's entries with their
      rebuild-cost weights, ages and parked document counts.
    - [{"op":"evict","digest":d}] (or ["language":L]) → drop one cached
      session and its documents; [{"op":"clear"}] → drop them all.
    - [{"op":"shutdown"}] → [{"ok":true,"stopping":true}]; the server
      stops accepting connections, drains the pool and returns.

    {b Fabric ops} (the distributed-evaluation handshake — see
    [docs/FABRIC.md]):
    - [{"op":"fabric_job","job":{...},"lane":"bulk"|"interactive",
      "session":digest}] — a coordinator-dispatched job. The lane
      defaults to [bulk] (so interactive [job]/[update] traffic
      preempts it at dequeue); a job with a grammar tenant must carry
      the grammar's session [digest], which is resolved against the
      local spool. An unshipped digest answers the typed refusal
      [{"ok":false,"error":"grammar_miss","digest":d}] — the
      coordinator's cue to [grammar_put] and retry.
    - [{"op":"grammar_put","digest":d,"name":base,"source":S}] — ship a
      grammar source. The digest is recomputed over the received bytes
      and must match, else [{"ok":false,"error":"grammar digest
      mismatch","expected":..,"got":..}]; on success the source lands
      in a per-serve content-addressed spool and the op answers
      [{"ok":true,"digest":d,"spooled":path}].
    - [{"op":"grammar_have","digest":d}] →
      [{"ok":true,"digest":d,"have":true|false}] — spool membership,
      letting a coordinator pre-ship instead of paying a round-trip
      miss.

    A connection handles any number of requests in sequence; each
    connection gets an OS thread, while evaluation itself happens on the
    pool's domains. *)

val max_frame : int
(** 16 MiB — the largest accepted request/response payload. *)

val protocol_version : int

val serve :
  ?queue_capacity:int ->
  ?session_capacity:int ->
  ?session_ttl:float ->
  ?quarantine_after:int ->
  ?metrics:Lg_support.Metrics.t ->
  ?tracer:Lg_support.Trace.t ->
  ?events:Lg_support.Eventlog.t ->
  ?postmortem_dir:string ->
  ?postmortem_keep:int ->
  ?incremental:Batch.incremental ->
  ?chaos:Chaos.t ->
  ?deadline:float ->
  ?slo_window:float ->
  ?tenants_file:string ->
  ?tcp:string ->
  ?on_tcp_port:(int -> unit) ->
  workers:int ->
  socket:string ->
  unit ->
  unit
(** Bind [socket] (an existing stale socket file is replaced), serve
    until a [shutdown] request, then drain and clean up the socket file.
    [queue_capacity] (default [4 * workers]) bounds queued jobs;
    [metrics] defaults to a fresh registry; [session_ttl] expires idle
    cached sessions; [quarantine_after] (default 3) is the
    worker-fatal strike threshold ({!Session}). [incremental] turns
    per-document state keeping on for [update] ops/jobs ([--incremental]
    in the CLI); without it updates evaluate from scratch. [deadline]
    (seconds) is the default wall-clock budget for [job]/[update] ops
    that don't carry their own. [chaos] arms deterministic fault
    injection ({!Chaos}) — worker delays/crashes/wedges and response
    drops — for resilience testing.

    [tcp] ([HOST:PORT], the CLI's [--listen]) opens a second, TCP
    listener serving the identical protocol — port [0] lets the OS
    pick, and [on_tcp_port] (if given) is called once with the port
    actually bound, before the first accept. Raises [Invalid_argument]
    on an unparsable spec. [slo_window] (seconds, default 60) is the
    rolling window behind the [server.*_recent_seconds] histograms the
    [top] dashboard's current-latency columns read.

    [tenants_file] makes the per-tenant accounting ledger persistent:
    an existing snapshot is merged in before the listeners open (a
    malformed one raises [Failure]; a missing one is a first boot), and
    the ledger is written back atomically (temp file + rename) on
    [drain] and again at shutdown.

    [tracer] (default disabled) receives every request's absorbed span
    tree — the CLI's [serve --trace-out] exports it as a merged Chrome
    trace on shutdown. [postmortem_dir] (created if missing) turns on
    crash dumps: a job failing with [deadline_exceeded] (50) or
    [worker_crashed] (51) writes the lifecycle events read off its
    request's trace as [postmortem-<job>-<n>.json] there. [events]
    (default on) makes requests keep that trace when only the flight
    recorder reads it; with {!Lg_support.Eventlog.null} only a
    run-wide [tracer] does. [postmortem_keep] caps retention
    — after each dump only the newest N survive, each removal counted
    by [server.postmortems_pruned]. Installs [SIGPIPE → ignore]
    process-wide, so a vanished client costs one connection, not the
    server. Raises [Unix.Unix_error] if the socket cannot be bound. *)

val prune_postmortems :
  dir:string -> keep:int -> metrics:Lg_support.Metrics.t -> int
(** Delete all but the newest [keep] [postmortem-*.json] dumps in [dir]
    (newest by mtime, name-descending tie-break — deterministic),
    bumping [server.postmortems_pruned] per removal; answers how many
    were deleted. Exposed for tests; {!serve} runs it after every dump
    when [postmortem_keep] is set. *)

(** {1 Client side} *)

val default_attempts : int
(** 5. *)

val mint_trace_id : unit -> string
(** A fresh 16-hex-char trace id (process-unique by pid, clock and a
    counter). {!request} calls this for any request document that does
    not already carry a ["trace"] member. *)

val request :
  ?attempts:int ->
  ?backoff:float ->
  ?budget:float ->
  ?jitter_seed:int ->
  socket:string ->
  Lg_support.Json_out.t ->
  Lg_support.Json_out.t
(** Send one framed request and return the framed response, minting a
    ["trace"] id onto the request document unless it already carries
    one, and retrying transient failures: connect errors (server not up
    yet, socket file missing), connections torn down mid-exchange (a
    chaotic [drop], a crashed-and-restarted server) and ["saturated"]
    backpressure responses. Any other response — including error responses — is
    final. Up to [attempts] tries (default {!default_attempts}; [1]
    disables retrying — the [--no-retry] behavior), sleeping an
    exponential backoff ([backoff], default 0.05 s nominal first step)
    with deterministic jitter seeded by [jitter_seed] between tries;
    [budget] (seconds) caps the {e total} wall clock spent, after which
    the next failure is re-raised as-is. Raises [Unix.Unix_error] /
    [Failure] when retries are exhausted.

    Note a retried [job] may execute twice server-side (a dropped
    response arrives after the work ran) — jobs are stateless apart
    from session warming, so a re-run answers identically. *)

val request_endpoint :
  ?attempts:int ->
  ?backoff:float ->
  ?budget:float ->
  ?jitter_seed:int ->
  endpoint:Transport.endpoint ->
  Lg_support.Json_out.t ->
  Lg_support.Json_out.t
(** {!request} generalized over {!Transport.endpoint} — the same retry
    and trace-minting behavior against a Unix socket path or a TCP
    worker host. [request ~socket] is
    [request_endpoint ~endpoint:(Unix_path socket)]. Network
    transients (host unreachable, connect timeout) retry exactly like
    a not-yet-bound socket file does. *)
