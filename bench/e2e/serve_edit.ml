(* serve-edit: an in-process [Server.serve ~workers:1 ~incremental] on a
   Unix socket. One process generates the load with two sender threads,
   each with at most one request in flight. Reads (70%) are [job]
   translations on warm small tenants, all sent by one thread; writes
   (30%) are [update]s applying one-statement edits to eight
   300-statement Pascal documents, all sent by the other, so every
   document's edit order is fixed and a read never waits on the client
   side behind an update. The per-request cost is connect + codec +
   queue + a small evaluation or an incremental propagation.

   The timed phase has two parts. First a closed loop: each sender sends
   its requests back to back, and the rate completed is the generator's
   capacity, [ops_per_s]. Then an open loop: Poisson arrivals at the
   fixed [rate], each request timed from when it was due, which gives
   the read and update latencies.

   One evaluation worker, not two: tree node ids come from a global
   counter that concurrent parses can re-issue, and incremental state
   keyed by those ids then breaks ("Propagate: no defining rule") after
   a few hundred updates under two workers. *)

open Common
module T = Lg_support.Trace
module Server = Lg_server.Server
module Jobfile = Lg_server.Jobfile
module Tr = Linguist.Translator

(* Requests per second of the open loop: half the closed-loop capacity
   that the commit introducing this benchmark measured on a 2-core host
   (a serve-edit [ops_per_s] median of 98.5/s over ten seeds at a trial
   rate of 84/s; README.md). *)
let rate = 49.0

let senders = 2
let n_docs = 8
let doc_stmts s = if s.smoke then 40 else 300
let socket = "serve.sock"

type kind = Read of int | Update of int * int  (** doc, version *)

type request = { index : int; due : float; sender : int; kind : kind; body : J.t; trace : string }

type reply = { send : float; recv : float; response : J.t option }

type tenant = { t_job : Jobfile.tenant; t_tr : Tr.t }

(* The read pool: a few seeded inputs for each of six warm tenants, and
   the Pascal translator the updates' oracle uses. *)
let read_pool s =
  let derive = Lg_corpus.Prng.derive s.seed in
  let corpus =
    Lg_corpus.Emit.write ~dir:"tenants"
      { Lg_corpus.Emit.default with
        Lg_corpus.Emit.s_seed = s.seed; s_grammars = 4; s_inputs = 4; s_fault_every = 0 }
  in
  let lang name tr = { t_job = Jobfile.Language name; t_tr = tr } in
  let calc = lang "desk_calc" (Lg_languages.Desk_calc.translator ()) in
  let pascal = lang "pascal" (Lg_languages.Pascal_ag.translator ()) in
  let grammar i b =
    let path = Filename.concat "tenants" (Lg_corpus.Emit.grammar_rel i) in
    let t = { t_job = Jobfile.Grammar path; t_tr = corpus_translator b } in
    List.init 4 (fun k ->
        (t, read_file (Filename.concat "tenants" (Lg_corpus.Emit.input_rel i k))))
  in
  let pool =
    List.init 4 (fun k -> (calc, Gen.calc ~seed:(derive (200 + k)) 20))
    @ List.init 4 (fun k -> (pascal, Gen.pascal ~seed:(derive (300 + k)) 50))
    @ List.concat (List.mapi grammar corpus.Lg_corpus.Emit.c_built)
  in
  (Array.of_list pool, pascal.t_tr)

let trace_id i = Printf.sprintf "e2e%013d" i

let read_body pool i ~id ~trace =
  let t, text = pool.(i) in
  J.Obj
    [
      ("op", J.Str "job");
      ( "job",
        Jobfile.job_to_json
          (Jobfile.make ~id ~source:text ~op:(Jobfile.Translate t.t_job)
             ~file:(Printf.sprintf "read-%d" i) ()) );
      ("trace", J.Str trace);
    ]

let update_body ~doc ~text ~trace =
  J.Obj
    [
      ("op", J.Str "update");
      ("language", J.Str "pascal");
      ("source", J.Str text);
      ("doc", J.Str (Printf.sprintf "doc-%d" doc));
      ("trace", J.Str trace);
    ]

(* The schedule, 70% reads: the closed loop's requests, then the open
   loop's [rate x seconds] arrivals spread uniformly at random over
   [seconds] (a Poisson process conditioned on its count, so every seed
   offers the same load). The closed loop sends half as many, which
   takes about a quarter as long. Document versions are drawn as the
   schedule is, so version [k] of a document is the same text on every
   run of a seed. *)
let schedule s ~pool ~docs =
  let rng = Gen.stream s.seed 20 in
  let n_open = if s.smoke then 12 else int_of_float (rate *. s.seconds) in
  let n_closed = n_open / 2 in
  let span = if s.smoke then 0.1 else s.seconds in
  let dues =
    sorted
      (List.init n_open (fun _ -> span *. float_of_int (Lg_corpus.Prng.int rng 1_000_000) /. 1e6))
  in
  let versions = Array.map (fun d -> ref [ d ]) docs in
  let request index due =
    let trace = trace_id index in
    let id = Printf.sprintf "r%d" index in
    if Lg_corpus.Prng.int rng 10 < 7 then
      let i = Lg_corpus.Prng.int rng (Array.length pool) in
      { index; due; sender = 0; kind = Read i; body = read_body pool i ~id ~trace; trace }
    else
      let d = Lg_corpus.Prng.int rng n_docs in
      let v = versions.(d) in
      v := Gen.edit rng (List.hd !v) :: !v;
      let version = List.length !v - 1 in
      { index; due; sender = 1; kind = Update (d, version);
        body = update_body ~doc:d ~text:(Gen.pascal_of_stmts (List.hd !v)) ~trace;
        trace }
  in
  let closed = Array.init n_closed (fun i -> request i 0.0) in
  let opened = Array.mapi (fun i due -> request (n_closed + i) due) dues in
  (closed, opened, Array.map (fun v -> Array.of_list (List.rev !v)) versions)

type state = {
  server : unit Domain.t;
  pool : (tenant * string) array;
  pascal : Tr.t;
  closed : request array;  (** the closed loop's requests *)
  opened : request array;  (** the open loop's, with due times *)
  versions : (int * int) array array array;  (** doc -> version -> statements *)
}

let request body = Server.request ~socket body

let ok response = J.member "ok" response = Some (J.Bool true)

let setup s ~tracer () =
  let pool, pascal = read_pool s in
  let docs =
    Array.init n_docs (fun d ->
        Gen.pascal_stmts ~seed:(Lg_corpus.Prng.derive s.seed (400 + d)) (doc_stmts s))
  in
  let closed, opened, versions = schedule s ~pool ~docs in
  let server =
    Domain.spawn (fun () ->
        Server.serve ~workers:1 ~incremental:Batch.default_incremental ~tracer
          ~events:Lg_support.Eventlog.null ~socket ())
  in
  (* warm-up: every read tenant once, every document's first version *)
  let warm body = if not (ok (request body)) then failwith "serve-edit: warm-up failed" in
  Array.iteri
    (fun i _ -> warm (read_body pool i ~id:(Printf.sprintf "warm-%d" i) ~trace:"warm"))
    pool;
  Array.iteri
    (fun d v -> warm (update_body ~doc:d ~text:(Gen.pascal_of_stmts v.(0)) ~trace:"warm"))
    versions;
  { server; pool; pascal; closed; opened; versions }

let dispose st =
  ignore (request (J.Obj [ ("op", J.Str "shutdown") ]));
  Domain.join st.server

(* Send every request of one sender at its due time, or as soon as the
   previous one answered when the sender is running late (always, when
   not [paced]). *)
let send_all ~paced ~t0 requests replies k =
  Array.iter
    (fun r ->
      if r.sender = k then begin
        let wait = t0 +. r.due -. now () in
        if paced && wait > 0.0 then Unix.sleepf wait;
        let send = now () in
        let response = try Some (request r.body) with _ -> None in
        replies.(r.index) <- Some { send; recv = now (); response }
      end)
    requests

let outputs_of = function
  | Read _ -> fun r -> Option.bind (J.member "payload" r) (J.member "outputs")
  | Update _ -> J.member "outputs"

let translate_outputs tr text =
  match Tr.translate tr ~file:"oracle" text with
  | Ok t -> Some (J.to_string (outputs_json t.Tr.outputs))
  | Error _ -> None

(* One request's latency, split by where it went. *)
type parts = {
  read : bool;
  lag : float;  (** sent after its due time *)
  transport : float;  (** client wait beyond the server's request span *)
  queue : float;
  service : float;
  latency : float;  (** from due time to response *)
}

(* The per-layer metrics of a traced run. Each request's server span
   tree is matched to the client's timing by the bench-minted trace id;
   transport is what the client waited beyond the server's request
   span: connect, framing, and the socket both ways. *)
let traced_layers st ~tracer ~mark ~delta ~replies ~t0 ~t_end ~capacity =
  let timed = Layers.since tracer mark in
  let by_trace = Hashtbl.create 1024 in
  List.iter
    (fun nd ->
      match List.assoc_opt "trace" nd.Layers.sp.T.sp_args with
      | Some (T.Str id) -> Hashtbl.replace by_trace id nd
      | _ -> ())
    (Layers.requests timed);
  let child nd name =
    List.fold_left
      (fun acc k -> if k.Layers.sp.T.sp_name = name then acc +. k.Layers.sp.T.sp_dur else acc)
      0.0 nd.Layers.kids
  in
  let parts =
    Array.to_list st.opened
    |> List.filter_map (fun r ->
           Option.map
             (fun nd ->
               let rp = replies.(r.index) in
               {
                 read = (match r.kind with Read _ -> true | Update _ -> false);
                 lag = rp.send -. (t0 +. r.due);
                 transport = Float.max 0.0 (rp.recv -. rp.send -. nd.Layers.sp.T.sp_dur);
                 queue = child nd "queue.wait";
                 service = child nd "service";
                 latency = rp.recv -. (t0 +. r.due);
               })
             (Hashtbl.find_opt by_trace r.trace))
  in
  let transport = List.map (fun p -> p.transport) parts in
  let queue = List.map (fun p -> p.queue) parts and service = List.map (fun p -> p.service) parts in
  let reads = List.filter (fun p -> p.read) parts in
  let p50 xs = 1e3 *. median xs in
  let timed_us f xs =
    List.map
      (fun x ->
        let t = now () in
        ignore (Sys.opaque_identity (f x));
        now () -. t)
      xs
  in
  let us name xs =
    metric ~samples:(List.length xs) name "us" (1e6 *. ratio (sum xs) (float_of_int (List.length xs)))
  in
  let bodies = Array.to_list (Array.map (fun r -> r.body) st.opened) in
  let responses =
    Array.to_list st.opened
    |> List.filter_map (fun r -> Option.map J.to_string replies.(r.index).response)
  in
  let fired =
    Array.to_list st.opened
    |> List.filter_map (fun r ->
           match (r.kind, replies.(r.index).response) with
           | Update _, Some resp ->
               Option.map J.to_num (Option.bind (J.member "incremental" resp) (J.member "fired"))
           | _ -> None)
  in
  let scratch_rules =
    match Tr.translate st.pascal ~file:"rules" (Gen.pascal_of_stmts st.versions.(0).(0)) with
    | Ok t -> float_of_int t.Tr.eval_stats.Linguist.Engine.rules_evaluated
    | Error _ -> nan
  in
  let front =
    Layers.front_probe
      (Array.to_list (Array.map (fun (t, text) -> (t.t_tr, text)) st.pool)
      @ List.map (fun v -> (st.pascal, Gen.pascal_of_stmts v.(0))) (Array.to_list st.versions))
  in
  let n = List.length parts in
  [
    metric ~samples:n "pool.queue_wait_p50_ms" "ms" (p50 queue);
    metric ~samples:n "pool.queue_wait_p95_ms" "ms" (1e3 *. quantile queue 0.95);
    metric ~samples:n "server.service_p50_ms" "ms" (p50 service);
    metric ~samples:n "server.request_p50_ms" "ms"
      (p50 (List.map (fun nd -> nd.Layers.sp.T.sp_dur) (Layers.requests timed)));
    metric ~samples:n "transport.p50_ms" "ms" (p50 transport);
    (* the share of read latency that generator lag, transport, queue
       wait and service add up to; the rest is request-span self time *)
    metric "trace.read_accounted_frac" "ratio"
      (ratio
         (sum (List.map (fun p -> p.lag +. p.transport +. p.queue +. p.service) reads))
         (sum (List.map (fun p -> p.latency) reads)));
    us "codec.encode_us" (timed_us J.to_string bodies);
    us "codec.decode_us" (timed_us J.parse responses);
    metric "incr.update_p50_ms" "ms" (p50 (Layers.durations timed "incremental.update"));
    metric "incr.diff_p50_ms" "ms" (p50 (Layers.durations timed "incremental.diff"));
    metric "incr.fired_fraction" "ratio" (ratio (median fired) scratch_rules);
  ]
  @ Layers.common ~all_nodes:(Layers.all tracer) ~timed ~front ~ops:(Array.length st.opened)
      ~delta ~busy_frac:(ratio (sum service) (t_end -. t0))
      ~traced_ops_per_s:capacity ~extra:[ ("transport", sum transport) ]

let run s =
  let tracer = if s.traced then T.create () else T.null in
  let st, setup_s =
    repeated_setup ~reps:(setup_reps s) ~build:(setup s ~tracer) ~dispose
  in
  let requests = Array.append st.closed st.opened in
  let n = Array.length requests in
  let replies = Array.make n None in
  let phase ~paced batch =
    let t0 = now () in
    List.iter Thread.join
      (List.init senders (fun k -> Thread.create (send_all ~paced ~t0 batch replies) k));
    (t0, now ())
  in
  let c0, c1 = phase ~paced:false st.closed in
  let mark = T.span_count tracer in
  let counts0 = Layers.counts [ tracer ] in
  let t0, t_end = phase ~paced:true st.opened in
  let delta = Layers.diff (Layers.counts [ tracer ]) counts0 in
  dispose st;
  let replies = Array.map Option.get replies in
  (* the oracle, after the timed phase: every read input, and a seeded
     sample of updates plus each document's last version, translated
     from scratch by the library *)
  let read_oracle = Array.map (fun (t, text) -> translate_outputs t.t_tr text) st.pool in
  let last = Array.make n_docs (-1) in
  Array.iter (fun r -> match r.kind with Update (d, _) -> last.(d) <- r.index | Read _ -> ()) requests;
  let rng = Gen.stream s.seed 21 in
  let checked r =
    match r.kind with
    | Read i -> Some read_oracle.(i)
    | Update (d, v) when last.(d) = r.index || Lg_corpus.Prng.int rng 20 = 0 ->
        Some (translate_outputs st.pascal (Gen.pascal_of_stmts st.versions.(d).(v)))
    | Update _ -> None
  in
  let wrong =
    Array.map
      (fun r ->
        match replies.(r.index).response with
        | Some resp when ok resp -> (
            match checked r with
            | None -> false
            | Some want ->
                Option.map J.to_string (outputs_of r.kind resp) <> want || want = None)
        | _ -> true)
      requests
  in
  Array.iter
    (fun r ->
      if wrong.(r.index) then
        Printf.eprintf "serve-edit: request %s answered wrongly: %s\n" r.trace
          (Option.fold ~none:"no response" ~some:J.to_string replies.(r.index).response))
    requests;
  let failed = Array.fold_left (fun n w -> if w then n + 1 else n) 0 wrong in
  let digest =
    digest_string
      (String.concat "\n"
         (Array.to_list
            (Array.map
               (fun r ->
                 r.trace ^ " "
                 ^ Option.fold ~none:"-" ~some:J.to_string
                     (Option.bind replies.(r.index).response (outputs_of r.kind)))
               requests)))
  in
  let key = Printf.sprintf "%s-%gs" (digest_key ~workload:"serve-edit" s) s.seconds in
  let failed = if check_digest key digest then failed else n in
  let latency p =
    List.filter_map
      (fun r -> if p r.kind then Some (replies.(r.index).recv -. (t0 +. r.due)) else None)
      (Array.to_list st.opened)
  in
  let is_read = function Read _ -> true | Update _ -> false in
  let capacity = float_of_int (Array.length st.closed) /. (c1 -. c0) in
  let e2e =
    [ metric "setup_s" "s" setup_s; metric "ops_per_s" "ops/s" capacity ]
    @ latency_metrics "latency" (latency is_read)
    @ latency_metrics "update" (latency (fun k -> not (is_read k)))
    @ [
        (let lags =
           Array.to_list
             (Array.map (fun r -> replies.(r.index).send -. (t0 +. r.due)) st.opened)
         in
         metric ~samples:(List.length lags) "gen.lag_p95_ms" "ms" (1e3 *. quantile lags 0.95));
      ]
  in
  let layers =
    if s.traced then traced_layers st ~tracer ~mark ~delta ~replies ~t0 ~t_end ~capacity else []
  in
  { attempted = n; failed; metrics = e2e; layers; tracers = [ tracer ] }
