(* The LINGUIST command line: process attribute grammars from files.

     linguist-cli check    FILE.ag          diagnostics only
     linguist-cli stats    FILE.ag          the grammar-statistics row (E1)
     linguist-cli compile  FILE.ag -o DIR   listing + generated Pascal modules
     linguist-cli self                      the self-generation demonstration
*)
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The evaluator settings of [analyze], the one file command that runs an
   evaluator. *)
let engine_options_of ~apt_store ~apt_page_size ~apt_faults ~depth_budget
    ~node_budget =
  if apt_page_size <= 0 then
    failwith
      (Printf.sprintf "--apt-page-size must be positive (got %d)" apt_page_size);
  let faults =
    match apt_faults with
    | None -> None
    | Some spec -> (
        match Lg_apt.Apt_store.parse_spec spec with
        | Ok s -> Some s
        | Error msg ->
            failwith (Printf.sprintf "--apt-faults %s: %s" spec msg))
  in
  let config =
    { Lg_apt.Apt_store.default_config with page_size = apt_page_size; faults }
  in
  {
    Linguist.Engine.default_options with
    backend = Lg_apt.Aptfile.backend_of_store_name ~config apt_store;
    depth_budget;
    node_budget;
  }

(* APT integrity and resource failures are typed (Apt_error); render them
   as diagnostics and exit with their stable code instead of letting
   cmdliner's catch-all turn them into a backtrace. *)
let guard f =
  try f ()
  with Lg_apt.Apt_error.Error e ->
    Format.eprintf "%a@." Lg_support.Diag.pp (Lg_apt.Apt_error.to_diag e);
    exit (Lg_apt.Apt_error.exit_code e)

let process ~options path =
  let source = read_file path in
  match Linguist.Driver.process ~options ~file:path source with
  | Ok artifact -> Ok (source, artifact)
  | Error diag ->
      print_string
        (Linguist.Listing.errors_only ~source ~file:path diag);
      Error ()

(* common flags *)
let file_arg =
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE.ag")

let no_subsumption =
  Arg.(value & flag & info [ "no-subsumption" ] ~doc:"Disable static subsumption.")

let no_dead_opt =
  Arg.(
    value & flag
    & info [ "no-dead-opt" ]
        ~doc:"Write every computed attribute to the intermediate files.")

let max_passes =
  Arg.(
    value & opt int 16
    & info [ "max-passes" ] ~docv:"N"
        ~doc:"Reject grammars needing more than $(docv) alternating passes.")

(* The front end's settings, shared by the commands that check a grammar
   and print what the overlays built. *)
let driver_options =
  Term.(
    const (fun no_sub no_dead max_passes ->
        {
          Linguist.Driver.default_options with
          subsumption = not no_sub;
          dead_opt = not no_dead;
          max_passes;
        })
    $ no_subsumption $ no_dead_opt $ max_passes)

let apt_store =
  Arg.(
    value & opt string "mem"
    & info [ "apt-store" ] ~docv:"STORE"
        ~doc:
          "APT store backing the intermediate files of evaluator runs: \
           $(b,mem) or $(b,paged) (see the $(b,stores) subcommand).")

let apt_page_size =
  Arg.(
    value & opt int Lg_apt.Apt_store.default_config.Lg_apt.Apt_store.page_size
    & info [ "apt-page-size" ] ~docv:"BYTES"
        ~doc:"Page size for the paged APT store.")

let apt_faults =
  Arg.(
    value & opt (some string) None
    & info [ "apt-faults" ] ~docv:"SEED:RATE:KINDS"
        ~doc:
          "Deterministic fault injection for the APT stores: an RNG seed, \
           a per-opportunity rate in [0,1], and a comma-separated list of \
           kinds — $(b,transient), $(b,short), $(b,flip), $(b,torn), or \
           $(b,all). Applies under $(b,--apt-store) $(b,paged): \
           write-side kinds (flip, torn) damage the medium when a file is \
           closed, and its readers fail with a typed error; read-side kinds \
           are absorbed by bounded retries.")

let depth_budget =
  Arg.(
    value & opt int Linguist.Engine.default_depth_budget
    & info [ "depth-budget" ] ~docv:"N"
        ~doc:
          "Abort evaluation with a diagnostic when the APT tree nests \
           deeper than $(docv) open nodes, instead of overflowing the \
           stack.")

let node_budget =
  Arg.(
    value & opt int 0
    & info [ "node-budget" ] ~docv:"N"
        ~doc:
          "Abort evaluation with a diagnostic when one pass reads more \
           than $(docv) APT records; 0 means unlimited.")

let trace_out =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Profile the whole run and write Chrome trace_event JSON to \
           $(docv) — load it in chrome://tracing or Perfetto ($(docv) \
           $(b,-) writes it to stdout). Spans cover every overlay, \
           evaluator pass (with APT I/O counters), and table \
           construction; see docs/OBSERVABILITY.md.")

let report_out =
  Arg.(
    value & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write a JSON run manifest to $(docv) ($(b,-) for stdout): \
           grammar statistics, pass plan, overlay timings and a \
           metrics-registry snapshot. Render it \
           with the $(b,report) subcommand; compare two manifests with \
           the bench harness's $(b,diff) mode.")

let trace_attrs =
  Arg.(
    value & flag
    & info [ "trace-attrs" ]
        ~doc:
          "Also record per-production attribute-evaluation counts on \
           evaluator pass spans (attribute-level debugging). Without \
           $(b,--trace-out), the trace summary is printed to stderr.")

(* Install the ambient tracer around a command so every layer — driver
   overlays, evaluator passes reached through Translator, table builders —
   reports into one trace without explicit threading. *)
let with_trace ~trace_out ~trace_attrs ~label f =
  if trace_out = None && not trace_attrs then f ()
  else begin
    let tr = Lg_support.Trace.create () in
    Lg_support.Trace.install ~attr_counts:trace_attrs tr;
    let finish () =
      Lg_support.Trace.install Lg_support.Trace.null;
      match trace_out with
      | Some "-" ->
          (* JSON on stdout, the confirmation (like every diagnostic) on
             stderr, so the output pipes cleanly *)
          print_string
            (Lg_support.Trace.to_chrome_json
               ~process_name:("linguist-cli " ^ label) tr);
          Printf.eprintf "trace: wrote %d spans to stdout\n%!"
            (Lg_support.Trace.span_count tr)
      | Some path ->
          Lg_support.Trace.write_chrome
            ~process_name:("linguist-cli " ^ label) tr ~path;
          Printf.eprintf "trace: wrote %s (%d spans)\n%!" path
            (Lg_support.Trace.span_count tr)
      | None -> Format.eprintf "%a@?" Lg_support.Trace.pp_summary tr
    in
    (* The trace is written after the command, not in a [~finally], so an
       unwritable path surfaces as itself (see [output_errors]); a failed
       command still leaves its trace, unless that write fails too. *)
    match Lg_support.Trace.span tr ~cat:"cli" label f with
    | result ->
        finish ();
        result
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (try finish () with Sys_error _ -> ());
        Printexc.raise_with_backtrace e bt
  end

(* A path the command cannot write — a missing directory, a regular file
   where a directory is wanted — is a usage error naming the path (exit
   124), not an internal one. Sys_error's message starts with the path. *)
let output_errors f = try f () with Sys_error msg -> `Error (false, msg)

(* The full telemetry harness around a command: the ambient tracer (when
   tracing was asked for) plus an ambient metrics registry (when a run
   manifest was asked for), so every layer reports without explicit
   threading. *)
let with_telemetry ~trace_out ~trace_attrs ~report ~label f =
  if report = None then with_trace ~trace_out ~trace_attrs ~label f
  else begin
    Lg_support.Metrics.install (Lg_support.Metrics.create ());
    Fun.protect
      ~finally:(fun () -> Lg_support.Metrics.install Lg_support.Metrics.null)
      (fun () -> with_trace ~trace_out ~trace_attrs ~label f)
  end

(* Emit the run manifest a successful command asked for with --report. *)
let emit_manifest ~report ~command ~path artifact =
  match report with
  | None -> ()
  | Some dest ->
      Linguist.Manifest.write ~dest
        (Linguist.Manifest.build ~command ~file:path artifact);
      if dest <> "-" then Printf.eprintf "manifest: wrote %s\n%!" dest

(* The term of a front-end command: driver options, telemetry and the
   grammar file, plus [extra] (compile's output directory). *)
let front_term ~label run extra =
  Term.(
    ret
      (const (fun options tout tattrs rep path x ->
           output_errors (fun () ->
               with_telemetry ~trace_out:tout ~trace_attrs:tattrs ~report:rep
                 ~label (fun () -> run ~report:rep options path x)))
      $ driver_options $ trace_out $ trace_attrs $ report_out $ file_arg
      $ extra))

let check_cmd =
  let run ~report options path () =
    match process ~options path with
    | Ok (_, artifact) ->
        Format.printf "%a" Lg_support.Diag.pp_all artifact.Linguist.Driver.diag;
        Printf.printf
          "%s: ok — evaluable in %d alternating passes (first pass %s)\n" path
          artifact.Linguist.Driver.passes.Linguist.Pass_assign.n_passes
          (match
             Linguist.Pass_assign.direction artifact.Linguist.Driver.passes 1
           with
          | Linguist.Pass_assign.L2r -> "left-to-right"
          | Linguist.Pass_assign.R2l -> "right-to-left");
        emit_manifest ~report ~command:"check" ~path artifact;
        `Ok ()
    | Error () -> `Error (false, "errors in " ^ path)
  in
  Cmd.v (Cmd.info "check" ~doc:"Check an attribute grammar.")
    (front_term ~label:"check" run (Term.const ()))

let stats_cmd =
  let run ~report options path () =
    match process ~options path with
    | Ok (_, artifact) ->
        let ir = artifact.Linguist.Driver.ir in
        Format.printf "%a@." Linguist.Ir.pp_stats (Linguist.Ir.stats ir);
        Printf.printf "alternating passes    %6d\n"
          artifact.Linguist.Driver.passes.Linguist.Pass_assign.n_passes;
        let sub =
          Linguist.Subsume.report ir artifact.Linguist.Driver.alloc
        in
        Printf.printf "static attributes     %6d (of %d candidates)\n"
          sub.Linguist.Subsume.chosen sub.Linguist.Subsume.candidates;
        Printf.printf "subsumable copy-rules %6d\n"
          sub.Linguist.Subsume.subsumed_copy_rules;
        (* Saarinen's classification, which the paper's first optimization
           exploits: most attributes never cross a pass boundary. *)
        Printf.printf "temporary attributes  %6d (stack only)\n"
          (Linguist.Dead.temporary_count artifact.Linguist.Driver.dead);
        Printf.printf "significant attributes%6d (travel in the APT files)\n"
          (Linguist.Dead.significant_count artifact.Linguist.Driver.dead);
        emit_manifest ~report ~command:"stats" ~path artifact;
        `Ok ()
    | Error () -> `Error (false, "errors in " ^ path)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print grammar statistics (the paper's E1 row).")
    (front_term ~label:"stats" run (Term.const ()))

let out_dir =
  Arg.(
    value & opt string "linguist-out"
    & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")

let compile_cmd =
  let run ~report options path dir =
    match process ~options path with
    | Ok (_, artifact) ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let write name contents =
          let oc = open_out (Filename.concat dir name) in
          output_string oc contents;
          close_out oc;
          Printf.printf "wrote %s (%d bytes)\n" (Filename.concat dir name)
            (String.length contents)
        in
        write "listing.txt" artifact.Linguist.Driver.listing;
        List.iter
          (fun (m : Linguist.Pascal_gen.module_code) ->
            write
              (Printf.sprintf "pass%d.pas" m.Linguist.Pascal_gen.pass)
              m.Linguist.Pascal_gen.text)
          artifact.Linguist.Driver.modules;
        List.iter
          (fun (name, seconds) ->
            Printf.printf "  overlay %-16s %8.4f s\n" name seconds)
          artifact.Linguist.Driver.overlay_seconds;
        Printf.printf "throughput: %.0f lines/minute\n"
          (Linguist.Driver.throughput_lines_per_minute artifact);
        emit_manifest ~report ~command:"compile" ~path artifact;
        `Ok ()
    | Error () -> `Error (false, "errors in " ^ path)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Generate the listing and the per-pass evaluator modules.")
    (front_term ~label:"compile" run out_dir)

let tables_cmd =
  (* the companion parse-table builder, fed "exactly the same input file" *)
  let run ~report options path () =
    match process ~options path with
    | Ok (_, artifact) ->
        let cfg = Linguist.Ir.to_cfg artifact.Linguist.Driver.ir in
        let tables = Lg_lalr.Tables.build cfg in
        Printf.printf "%s: LALR(1) tables\n" path;
        Printf.printf "  terminals      %5d\n" (Lg_grammar.Cfg.terminal_count cfg);
        Printf.printf "  nonterminals   %5d\n" (Lg_grammar.Cfg.nonterminal_count cfg);
        Printf.printf "  productions    %5d\n" (Lg_grammar.Cfg.production_count cfg);
        Printf.printf "  LR(0) states   %5d\n" (Lg_lalr.Tables.state_count tables);
        Printf.printf "  table bytes    %5d (packed)\n"
          (Lg_lalr.Tables.table_bytes tables);
        (match Lg_lalr.Tables.unresolved_conflicts tables with
        | [] -> Printf.printf "  conflicts      none\n"
        | conflicts ->
            List.iter
              (fun c ->
                Format.printf "  conflict: %a@."
                  (Lg_lalr.Tables.pp_conflict tables)
                  c)
              conflicts);
        emit_manifest ~report ~command:"tables" ~path artifact;
        `Ok ()
    | Error () -> `Error (false, "errors in " ^ path)
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "Build the LALR(1) parse tables from the same grammar file \
          (the companion parse-table builder).")
    (front_term ~label:"tables" run (Term.const ()))

let analyze_cmd =
  (* the self-hosted path: the evaluator GENERATED from linguist.ag does
     the analysis, not the native checker *)
  let run engine_options path =
    let t = Lg_languages.Linguist_ag.translator () in
    let a =
      Lg_languages.Linguist_ag.analyze ~engine_options ~translator:t
        (read_file path)
    in
    Printf.printf
      "%s (analyzed by the evaluator generated from linguist.ag):\n" path;
    Printf.printf
      "  %d symbols, %d attribute declarations, %d productions, %d semantic functions (%d bare copies)\n"
      a.Lg_languages.Linguist_ag.n_symbols
      a.Lg_languages.Linguist_ag.n_attr_decls
      a.Lg_languages.Linguist_ag.n_productions
      a.Lg_languages.Linguist_ag.n_semantic_functions
      a.Lg_languages.Linguist_ag.n_copy_estimate;
    List.iter
      (fun (line, tag, name) -> Printf.printf "  line %d: %s %s\n" line tag name)
      a.Lg_languages.Linguist_ag.messages;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Analyze an attribute grammar with the self-hosted analyzer (the \
          evaluator generated from linguist.ag).")
    Term.(
      ret
        (const (fun store page faults db nb tout tattrs path ->
             match
               engine_options_of ~apt_store:store ~apt_page_size:page
                 ~apt_faults:faults ~depth_budget:db ~node_budget:nb
             with
             | exception Failure msg -> `Error (false, msg)
             | engine_options ->
                 guard (fun () ->
                     output_errors (fun () ->
                         with_trace ~trace_out:tout ~trace_attrs:tattrs
                           ~label:"analyze" (fun () ->
                             run engine_options path))))
        $ apt_store $ apt_page_size $ apt_faults $ depth_budget $ node_budget
        $ trace_out $ trace_attrs $ file_arg))

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit machine-readable JSON (with a metrics-registry snapshot) \
           instead of the human listing.")

let stores_cmd =
  let run json =
    if json then begin
      let open Lg_support.Json_out in
      let doc =
        Obj
          [
            ( "stores",
              Arr
                (List.map
                   (fun (name, _, description) ->
                     Obj
                       [
                         ("name", Str name); ("description", Str description);
                       ])
                   Lg_apt.Aptfile.stores) );
            ( "metrics",
              Lg_support.Metrics.to_json (Lg_support.Metrics.ambient ()) );
          ]
      in
      print_endline (to_string ~pretty:true doc)
    end
    else begin
      Printf.printf "registered APT stores (select with --apt-store):\n";
      List.iter
        (fun (name, _, description) ->
          Printf.printf "  %-10s %s\n" name description)
        Lg_apt.Aptfile.stores
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "stores"
       ~doc:"List the APT stores for the intermediate files.")
    Term.(ret (const run $ json_flag))

let report_cmd =
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"MANIFEST.json")
  in
  let run path =
    match Lg_support.Json_out.parse (read_file path) with
    | doc ->
        Format.printf "%a@?" Linguist.Manifest.pp doc;
        `Ok ()
    | exception Failure msg ->
        `Error (false, Printf.sprintf "%s: not a manifest (%s)" path msg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a JSON run manifest (written by $(b,--report)) in \
          human-readable form.")
    Term.(ret (const run $ manifest_arg))

(* ------------------------------------------------------------------ *)
(* The batch-evaluation service: batch / serve / request               *)

let jobs_flag =
  Arg.(
    value
    & opt int (Lg_server.Batch.default_workers ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains evaluating jobs in parallel; $(b,0) runs \
           sequentially in the calling domain.")

let incremental_flag =
  Arg.(
    value & flag
    & info [ "incremental" ]
        ~doc:
          "Keep per-document incremental state for $(b,update) jobs and \
           requests: successive updates to the same doc diff against the \
           cached tree and re-fire only the edit's consequences (see \
           docs/INCREMENTAL.md). Without this flag, updates still answer \
           correctly but evaluate from scratch.")

let incremental_threshold =
  Arg.(
    value
    & opt float
        Lg_server.Batch.default_incremental.Lg_incremental.Incr.threshold
    & info [ "incremental-threshold" ] ~docv:"FRACTION"
        ~doc:
          "Churn fraction (fresh nodes / tree size, in [0,1]) above which \
           an incremental update falls back to full evaluation instead of \
           propagating.")

let incremental_of ~on ~threshold =
  if not on then None
  else if threshold < 0.0 || threshold > 1.0 then
    failwith
      (Printf.sprintf "--incremental-threshold must be in [0,1] (got %g)"
         threshold)
  else Some { Lg_incremental.Incr.threshold }

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Default per-job wall-clock budget (queue wait counts); a job's \
           own $(b,deadline) field overrides it. Over budget, the pool \
           watchdog fails the job with the typed $(b,deadline_exceeded) \
           diagnostic (exit 50) and recycles its worker.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SEED:RATE:KINDS"
        ~doc:
          "Deterministic server-layer fault injection, e.g. \
           $(b,9:0.05:crash,drop). KINDS is a comma list of \
           $(b,delay)$(b,,)$(b,crash)$(b,,)$(b,wedge)$(b,,)$(b,drop) or \
           $(b,all) (see docs/SERVER.md).")

let chaos_poison_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos-poison" ] ~docv:"SUBSTR"
        ~doc:
          "With $(b,--chaos): any job whose id or file contains $(docv) \
           crashes its worker every time — the session-quarantine \
           scenario.")

let chaos_of ~spec ~poison ~metrics =
  match spec with
  | None ->
      if poison = None then None
      else failwith "--chaos-poison needs --chaos"
  | Some s -> (
      match Lg_server.Chaos.parse_spec s with
      | Error msg -> failwith (Printf.sprintf "--chaos %s: %s" s msg)
      | Ok spec -> Some (Lg_server.Chaos.create ?poison ~metrics spec))

let deadline_of = function
  | Some d when d <= 0.0 ->
      failwith (Printf.sprintf "--deadline must be positive (got %g)" d)
  | d -> d

let batch_cmd =
  let jobfile_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"JOBS.json"
          ~doc:"A $(b,linguist_jobs:1) job list (see docs/SERVER.md).")
  in
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the results JSON to $(docv) ($(b,-) for stdout).")
  in
  let timings_flag =
    Arg.(
      value & flag
      & info [ "timings" ]
          ~doc:
            "Include wall/per-job seconds, throughput and a metrics \
             snapshot in the results JSON. Off by default so results \
             are byte-identical across worker counts.")
  in
  let run ~jobs_path ~workers ~out ~timings ~incremental ~chaos_spec ~poison
      ~deadline ~trace_out ~trace_attrs =
    match Lg_server.Jobfile.parse_file jobs_path with
    | Error msg -> `Error (false, msg)
    | Ok jobs -> (
        let metrics = Lg_support.Metrics.create () in
        match (chaos_of ~spec:chaos_spec ~poison ~metrics, deadline_of deadline)
        with
        | exception Failure msg -> `Error (false, msg)
        | chaos, deadline ->
        let summary =
          with_trace ~trace_out ~trace_attrs ~label:"batch" (fun () ->
              Lg_server.Batch.run ~workers ~metrics ?incremental ?chaos
                ?deadline jobs)
        in
        let doc =
          match Lg_server.Batch.to_json ~timings summary with
          | Lg_support.Json_out.Obj members when timings ->
              Lg_support.Json_out.Obj
                (members
                @ [ ("metrics", Lg_support.Metrics.to_json metrics) ])
          | doc -> doc
        in
        let text = Lg_support.Json_out.to_string ~pretty:true doc ^ "\n" in
        (if out = "-" then print_string text
         else begin
           let oc = open_out out in
           output_string oc text;
           close_out oc
         end);
        Printf.eprintf "batch: %d jobs, %d ok, %d failed (%d workers, %.3f s)\n%!"
          (List.length summary.Lg_server.Batch.outcomes)
          summary.Lg_server.Batch.n_ok summary.Lg_server.Batch.n_failed
          summary.Lg_server.Batch.workers
          summary.Lg_server.Batch.wall_seconds;
        if summary.Lg_server.Batch.n_failed = 0 then `Ok ()
        else `Error (false, "some jobs failed (see the results JSON)"))
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Evaluate a job list on a pool of worker domains, one grammar \
          compilation shared by every job that needs it (see \
          docs/SERVER.md).")
    Term.(
      ret
        (const (fun workers out timings inc inc_threshold chaos_spec poison
                    deadline tout tattrs jobs_path ->
             guard (fun () ->
                 output_errors (fun () ->
                     match incremental_of ~on:inc ~threshold:inc_threshold with
                     | incremental ->
                         run ~jobs_path ~workers ~out ~timings ~incremental
                           ~chaos_spec ~poison ~deadline ~trace_out:tout
                           ~trace_attrs:tattrs
                     | exception Failure msg -> `Error (false, msg))))
        $ jobs_flag $ out_arg $ timings_flag $ incremental_flag
        $ incremental_threshold $ chaos_arg $ chaos_poison_arg
        $ deadline_arg $ trace_out $ trace_attrs $ jobfile_arg))

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

(* client commands reach a server either way: --socket PATH (local) or
   --connect HOST:PORT (a fabric worker's TCP listener) *)
let socket_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:
          "Reach the server over TCP instead of $(b,--socket) — a \
           $(b,serve --listen) endpoint, e.g. a fabric worker host.")

let endpoint_of ~socket ~connect =
  match (socket, connect) with
  | Some path, None -> Ok (Lg_server.Transport.Unix_path path)
  | None, Some spec -> Lg_server.Transport.parse_tcp spec
  | Some _, Some _ -> Error "--socket and --connect are mutually exclusive"
  | None, None -> Error "one of --socket or --connect is required"

let serve_cmd =
  let queue_arg =
    Arg.(
      value & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bound on queued (not yet started) jobs; further requests \
             are rejected with $(b,saturated) until the backlog drains. \
             Default: 4 per worker.")
  in
  let session_ttl_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "session-ttl" ] ~docv:"SECONDS"
          ~doc:
            "Expire cached sessions idle for longer than $(docv) (on top \
             of the cost-aware capacity eviction; see docs/SERVER.md).")
  in
  let quarantine_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "quarantine-after" ] ~docv:"N"
          ~doc:
            "Quarantine a session after $(docv) of its jobs take a worker \
             down (crash or deadline); further jobs naming it are refused \
             with the typed $(b,session_quarantined) diagnostic (exit 52) \
             until it is evicted. Default 3.")
  in
  let postmortem_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "postmortem-dir" ] ~docv:"DIR"
          ~doc:
            "Write a flight-recorder dump (the job's recent lifecycle \
             events as JSON) into $(docv) for every job that dies with \
             $(b,deadline_exceeded) (exit 50) or $(b,worker_crashed) \
             (exit 51). The directory is created if missing; see \
             docs/OBSERVABILITY.md for the dump schema.")
  in
  let run ~workers ~queue ~session_ttl ~quarantine ~incremental ~chaos_spec
      ~poison ~deadline ~trace_out ~postmortem_dir ~postmortem_keep ~listen
      ~tenants_file ~socket =
    let workers = max 1 workers in
    let metrics = Lg_support.Metrics.create () in
    (* a tenants file the server would refuse is refused before it listens *)
    let check_tenants_file = function
      | Some path when Sys.file_exists path -> (
          match Lg_server.Ledger.read ~path with
          | Ok _ -> ()
          | Error msg -> failwith ("tenant ledger: " ^ msg))
      | Some _ | None -> ()
    in
    match
      ( chaos_of ~spec:chaos_spec ~poison ~metrics,
        deadline_of deadline,
        check_tenants_file tenants_file )
    with
    | exception Failure msg -> `Error (false, msg)
    | chaos, deadline, () ->
        let tracer =
          if trace_out = None then Lg_support.Trace.null
          else Lg_support.Trace.create ()
        in
        Printf.eprintf "serve: listening on %s%s (%d workers%s%s)\n%!" socket
          (match listen with None -> "" | Some l -> " and tcp " ^ l)
          workers
          (if incremental = None then "" else ", incremental")
          (match chaos_spec with
          | None -> ""
          | Some s -> ", chaos " ^ s);
        Lg_server.Server.serve ?queue_capacity:queue ?session_ttl
          ?quarantine_after:quarantine ~metrics ~tracer ?postmortem_dir
          ?postmortem_keep ?tcp:listen
          ~on_tcp_port:(fun port ->
            Printf.eprintf "serve: tcp port %d bound\n%!" port)
          ?tenants_file ?incremental ?chaos ?deadline ~workers ~socket ();
        (match trace_out with
        | Some "-" ->
            print_string
              (Lg_support.Trace.to_chrome_json ~process_name:"linguist-serve"
                 tracer);
            Printf.eprintf "trace: wrote %d spans to stdout\n%!"
              (Lg_support.Trace.span_count tracer)
        | Some path ->
            Lg_support.Trace.write_chrome ~process_name:"linguist-serve"
              tracer ~path;
            Printf.eprintf "trace: wrote %s (%d spans)\n%!" path
              (Lg_support.Trace.span_count tracer)
        | None -> ());
        Printf.eprintf "serve: drained, socket closed\n%!";
        `Ok ()
  in
  let postmortem_keep_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "postmortem-keep" ] ~docv:"N"
          ~doc:
            "Retention cap for $(b,--postmortem-dir): after each dump \
             only the newest $(docv) survive, each removal counted by \
             the $(b,server.postmortems_pruned) metric.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Additionally serve the identical protocol over TCP — how \
             a worker host joins a $(b,coordinate) fleet (see \
             docs/FABRIC.md). Port 0 lets the OS pick (the bound port \
             is reported on stderr).")
  in
  let tenants_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tenants-file" ] ~docv:"PATH"
          ~doc:
            "Persist the per-tenant accounting ledger: merged in at \
             start, written back atomically on $(b,drain) and at \
             shutdown, so accounting survives restarts.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve length-prefixed JSON evaluation requests over a \
          Unix-domain socket — and, with $(b,--listen), over TCP — \
          backed by the same worker pool as $(b,batch) (see \
          docs/SERVER.md).")
    Term.(
      ret
        (const (fun workers queue session_ttl quarantine inc inc_threshold
                    chaos_spec poison deadline tout postmortem_dir
                    postmortem_keep listen tenants_file socket ->
             guard (fun () ->
                 match incremental_of ~on:inc ~threshold:inc_threshold with
                 | incremental ->
                     run ~workers ~queue ~session_ttl ~quarantine ~incremental
                       ~chaos_spec ~poison ~deadline ~trace_out:tout
                       ~postmortem_dir ~postmortem_keep ~listen ~tenants_file
                       ~socket
                 | exception Failure msg -> `Error (false, msg)))
        $ jobs_flag $ queue_arg $ session_ttl_arg $ quarantine_arg
        $ incremental_flag $ incremental_threshold $ chaos_arg
        $ chaos_poison_arg $ deadline_arg $ trace_out
        $ postmortem_arg $ postmortem_keep_arg $ listen_arg
        $ tenants_file_arg $ socket_arg))

let request_cmd =
  let request_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:
            "The request JSON, e.g. $(b,'{\"op\":\"ping\"}') — or \
             $(b,@FILE) to read it from a file.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int Lg_server.Server.default_attempts
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Attempts before giving up on transient failures (connect \
             errors, dropped connections, $(b,saturated) backpressure), \
             with jittered exponential backoff between tries.")
  in
  let retry_budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "retry-budget" ] ~docv:"SECONDS"
          ~doc:
            "Total wall-clock budget across retries; once spent, the next \
             failure is final.")
  in
  let no_retry_flag =
    Arg.(
      value & flag
      & info [ "no-retry" ]
          ~doc:
            "Exactly one attempt: transient failures and $(b,saturated) \
             responses surface immediately (the pre-retry behavior — \
             scripts that implement their own backoff).")
  in
  let run ~endpoint ~request ~retries ~budget ~no_retry =
    let text =
      if String.length request > 0 && request.[0] = '@' then
        read_file (String.sub request 1 (String.length request - 1))
      else request
    in
    match Lg_support.Json_out.parse text with
    | exception Failure msg -> `Error (false, "request is not JSON: " ^ msg)
    | doc ->
        let attempts = if no_retry then 1 else max 1 retries in
        let response =
          Lg_server.Server.request_endpoint ~attempts ?budget ~endpoint doc
        in
        print_endline (Lg_support.Json_out.to_string ~pretty:true response);
        let ok =
          match Lg_support.Json_out.member "ok" response with
          | Some (Lg_support.Json_out.Bool b) -> b
          | _ -> false
        in
        if ok then `Ok () else `Error (false, "request failed")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one framed JSON request to a running $(b,serve) endpoint \
          ($(b,--socket) or $(b,--connect)) and print the response (the \
          smoke-test client). Transient failures are retried with \
          jittered exponential backoff; see \
          $(b,--retries)/$(b,--no-retry).")
    Term.(
      ret
        (const (fun socket connect retries budget no_retry request ->
             guard (fun () ->
                 match endpoint_of ~socket ~connect with
                 | Error msg -> `Error (false, msg)
                 | Ok endpoint ->
                     run ~endpoint ~request ~retries ~budget ~no_retry))
        $ socket_opt_arg $ connect_arg $ retries_arg $ retry_budget_arg
        $ no_retry_flag $ request_arg))

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between dashboard refreshes (default 2).")
  in
  let once_flag =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Render one frame to stdout and exit — scripting and smoke \
             tests (no screen clearing).")
  in
  let run ~endpoint ~interval ~once =
    let open Lg_support.Json_out in
    let req doc =
      Lg_server.Server.request_endpoint ~attempts:2 ~endpoint doc
    in
    let jnum = function Some (Num f) -> f | _ -> 0.0 in
    let jint j = int_of_float (jnum j) in
    let jstr = function Some (Str s) -> s | _ -> "" in
    let frame () =
      let health = req (Obj [ ("op", Str "health") ]) in
      let metrics = req (Obj [ ("op", Str "metrics") ]) in
      let tenants = req (Obj [ ("op", Str "tenants") ]) in
      let b = Buffer.create 1024 in
      let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      let status =
        match member "ok" health with
        | Some (Bool true) -> jstr (member "status" health)
        | _ ->
            let e = jstr (member "error" health) in
            if e = "" then "unreachable" else e
      in
      add "linguist top — %s\n" (Lg_server.Transport.to_string endpoint);
      add "status %-10s uptime %.1f s\n" status
        (jnum (member "uptime_seconds" health));
      add
        "workers %d (live %d, parked %d, restarts %d)   queue %d/%d (peak \
         %d)   sessions %d\n"
        (jint (member "workers" health))
        (jint (member "workers_live" health))
        (jint (member "workers_parked" health))
        (jint (member "worker_restarts" health))
        (jint (member "queue_depth" health))
        (jint (member "queue_capacity" health))
        (jint (member "queue_peak" health))
        (jint (member "sessions" health));
      let quarantined =
        match member "quarantined" health with
        | Some (Arr l) -> List.length l
        | _ -> 0
      in
      add "quarantined sessions %d\n\n" quarantined;
      let series name =
        match member "metrics" metrics with
        | Some (Obj fields) -> List.assoc_opt name fields
        | _ -> None
      in
      let counter name = jint (series name) in
      add
        "jobs %d   rejections %d   crashes %d   deadline misses %d   \
         quarantine refusals %d\n"
        (counter "server.jobs")
        (counter "server.rejections")
        (counter "server.worker_crashes")
        (counter "server.deadline_exceeded")
        (counter "server.quarantined");
      let hist_line label name =
        match series name with
        | Some (Obj h) ->
            let p k =
              match List.assoc_opt k h with
              | Some (Num f) -> Printf.sprintf "%.4g s" f
              | _ -> "-"
            in
            let count =
              match List.assoc_opt "count" h with
              | Some (Num f) -> int_of_float f
              | _ -> 0
            in
            add "%-11s count %-6d p50 %-10s p95 %-10s p99 %-10s\n" label
              count (p "p50") (p "p95") (p "p99")
        | _ -> add "%-11s (no data)\n" label
      in
      hist_line "queue_wait" "server.queue_wait_seconds";
      hist_line "service" "server.service_seconds";
      (* the windowed twins: current latency (the rolling SLO window),
         not lifetime averages — what "is it slow right now" reads *)
      hist_line "wait (now)" "server.queue_wait_recent_seconds";
      hist_line "svc (now)" "server.service_recent_seconds";
      add "lanes: interactive %d queued, bulk %d queued\n"
        (counter "server.queue_depth_interactive")
        (counter "server.queue_depth_bulk");
      add "\n%-36s %6s %6s %6s %6s %6s %6s %8s  %s\n" "TENANT" "JOBS" "OK"
        "FAIL" "HITS" "MISS" "EVICT" "STRIKES" "Q";
      (match member "tenants" tenants with
      | Some (Arr rows) ->
          List.iter
            (fun row ->
              let gi n = jint (member n row) in
              let ci n =
                match member "cache" row with
                | Some cache -> jint (member n cache)
                | None -> 0
              in
              add "%-36s %6d %6d %6d %6d %6d %6d %8d  %s\n"
                (jstr (member "label" row))
                (gi "jobs") (gi "ok")
                (gi "jobs" - gi "ok")
                (ci "hits") (ci "misses") (ci "evictions") (gi "strikes")
                (match member "quarantined" row with
                | Some (Bool true) -> "yes"
                | _ -> "no"))
            rows
      | _ -> ());
      Buffer.contents b
    in
    try
      if once then begin
        print_string (frame ());
        `Ok ()
      end
      else
        let rec loop () =
          let text = frame () in
          (* clear + home between frames so the dashboard repaints in
             place; the frame is rendered off-screen first to keep the
             flicker window small *)
          print_string "\x1b[2J\x1b[H";
          print_string text;
          flush stdout;
          Unix.sleepf (Float.max 0.1 interval);
          loop ()
        in
        loop ()
    with
    | Unix.Unix_error (err, _, _) ->
        `Error (false, "top: " ^ Unix.error_message err)
    | Failure msg -> `Error (false, "top: " ^ msg)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running $(b,serve) endpoint \
          ($(b,--socket) or $(b,--connect)): polls the $(b,health), \
          $(b,metrics) and $(b,tenants) ops and renders worker/queue \
          state, lifetime and rolling-window SLO percentiles, lane \
          depths and the per-tenant accounting table. $(b,--once) \
          prints a single frame.")
    Term.(
      ret
        (const (fun socket connect interval once ->
             guard (fun () ->
                 match endpoint_of ~socket ~connect with
                 | Error msg -> `Error (false, msg)
                 | Ok endpoint -> run ~endpoint ~interval ~once))
        $ socket_opt_arg $ connect_arg $ interval_arg $ once_flag))

let coordinate_cmd =
  let jobfile_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"JOBFILE" ~doc:"The job list to distribute.")
  in
  let worker_arg =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "worker" ] ~docv:"ENDPOINT"
          ~doc:
            "A worker to dispatch to — $(b,HOST:PORT) (a $(b,serve \
             --listen) TCP endpoint) or a Unix socket path. Repeatable; \
             at least one required.")
  in
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the results JSON to $(docv) ($(b,-) for stdout). The \
             document is byte-identical to $(b,batch) over the same \
             jobfile — stats go to stderr.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 3
      & info [ "attempts" ] ~docv:"N"
          ~doc:
            "Per-request transport retries before a worker is declared \
             lost and its jobs move to a survivor.")
  in
  let redispatch_arg =
    Arg.(
      value & opt int 1
      & info [ "redispatch-limit" ] ~docv:"N"
          ~doc:
            "How often one job may chase typed 50–52 failures across \
             workers before the failure stands as its outcome.")
  in
  let endpoint_of_spec spec =
    if String.contains spec ':' then Lg_server.Transport.parse_tcp spec
    else Ok (Lg_server.Transport.Unix_path spec)
  in
  let run ~jobs_path ~workers ~out ~attempts ~redispatch_limit =
    match Lg_server.Jobfile.parse_file jobs_path with
    | Error msg -> `Error (false, msg)
    | Ok jobs -> (
        let endpoints =
          List.fold_right
            (fun spec acc ->
              match (acc, endpoint_of_spec spec) with
              | Error _, _ -> acc
              | _, Error msg -> Error msg
              | Ok eps, Ok ep -> Ok (ep :: eps))
            workers (Ok [])
        in
        match endpoints with
        | Error msg -> `Error (false, msg)
        | Ok endpoints ->
            let report =
              Lg_fabric.Coordinator.run ~attempts ~redispatch_limit
                ~log:(fun line -> Printf.eprintf "%s\n%!" line)
                ~workers:endpoints jobs
            in
            let summary = report.Lg_fabric.Coordinator.summary in
            let text =
              Lg_support.Json_out.to_string ~pretty:true
                (Lg_server.Batch.to_json ~timings:false summary)
              ^ "\n"
            in
            (if out = "-" then print_string text
             else begin
               let oc = open_out out in
               output_string oc text;
               close_out oc
             end);
            Printf.eprintf
              "coordinate: %d jobs, %d ok, %d failed (%d workers, %d \
               redispatched, %.3f s)\n\
               %!"
              (List.length summary.Lg_server.Batch.outcomes)
              summary.Lg_server.Batch.n_ok summary.Lg_server.Batch.n_failed
              (List.length report.Lg_fabric.Coordinator.workers)
              report.Lg_fabric.Coordinator.redispatched
              summary.Lg_server.Batch.wall_seconds;
            if summary.Lg_server.Batch.n_failed = 0 then `Ok ()
            else `Error (false, "some jobs failed (see the results JSON)"))
  in
  Cmd.v
    (Cmd.info "coordinate"
       ~doc:
         "Distribute a jobfile over running $(b,serve) workers: \
          pull-based dispatch that prefers grammars a worker already \
          holds (each grammar compiles at most once per worker), \
          on-demand grammar shipping, interactive/bulk lanes, \
          and re-dispatch on worker loss — with results byte-identical \
          to a local $(b,batch) run (see docs/FABRIC.md).")
    Term.(
      ret
        (const (fun workers out attempts redispatch_limit jobs_path ->
             guard (fun () ->
                 output_errors (fun () ->
                     run ~jobs_path ~workers ~out ~attempts ~redispatch_limit)))
        $ worker_arg $ out_arg $ attempts_arg $ redispatch_arg $ jobfile_arg))

let self_cmd =
  let run () =
    let t = Lg_languages.Linguist_ag.translator () in
    let ir = Linguist.Translator.ir t in
    Format.printf "linguist.ag:@.%a@." Linguist.Ir.pp_stats (Linguist.Ir.stats ir);
    let self = Lg_languages.Linguist_ag.self_analysis () in
    Printf.printf
      "self-analysis by the generated evaluator: %d symbols, %d productions, %d messages\n"
      self.Lg_languages.Linguist_ag.n_symbols
      self.Lg_languages.Linguist_ag.n_productions
      (List.length self.Lg_languages.Linguist_ag.messages);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "self" ~doc:"Run the self-generation demonstration.")
    Term.(
      ret
        (const (fun tout tattrs ->
             output_errors (fun () ->
                 with_trace ~trace_out:tout ~trace_attrs:tattrs ~label:"self"
                   (fun () -> run ())))
        $ trace_out $ trace_attrs))

(* ---------------- corpus ---------------- *)

let corpus_cmd =
  let profile_conv =
    let parse s =
      match Lg_corpus.Corpus_gen.profile_of_string s with
      | Some p -> Ok p
      | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown profile %s (expected one of %s)" s
                  (String.concat ", "
                     (List.map fst Lg_corpus.Corpus_gen.profile_names))))
    and print ppf p =
      Format.pp_print_string ppf (Lg_corpus.Corpus_gen.profile_name p)
    in
    Arg.conv (parse, print)
  in
  let profile_arg =
    Arg.(
      value
      & opt profile_conv Lg_corpus.Corpus_gen.Small
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:
            "Grammar size profile: $(b,small), $(b,medium), $(b,large) or \
             $(b,xl) (see docs/CORPUS.md).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Generator seed. The same seed, profile and name are \
             byte-identical on any machine.")
  in
  let name_arg =
    Arg.(
      value & opt string "corpus"
      & info [ "name" ] ~docv:"NAME" ~doc:"Grammar name in the generated text.")
  in
  let generate_cmd =
    let out_arg =
      Arg.(
        value & opt string "-"
        & info [ "out" ] ~docv:"FILE"
            ~doc:"Write the grammar source to $(docv) ($(b,-) for stdout).")
    in
    let run profile seed name out =
      let g =
        Lg_corpus.Corpus_gen.generate ~name
          (Lg_corpus.Corpus_gen.config_of_profile profile)
          ~seed
      in
      if out = "-" then print_string g.Lg_corpus.Corpus_gen.g_source
      else begin
        let oc = open_out_bin out in
        output_string oc g.Lg_corpus.Corpus_gen.g_source;
        close_out oc;
        Printf.eprintf "corpus: wrote %s (%s, seed %d)\n%!" out
          (Lg_corpus.Corpus_gen.profile_name profile)
          seed
      end;
      `Ok ()
    in
    Cmd.v
      (Cmd.info "generate"
         ~doc:"Generate one always-evaluable grammar from a seed.")
      Term.(
        ret
          (const (fun profile seed name out ->
               try output_errors (fun () -> run profile seed name out)
               with Invalid_argument msg -> `Error (false, msg))
          $ profile_arg $ seed_arg $ name_arg $ out_arg))
  in
  let describe_cmd =
    let lalr_flag =
      Arg.(
        value & flag
        & info [ "lalr" ]
            ~doc:
              "Also build LALR(1) tables and report state and unresolved \
               conflict counts (the expensive part at xl size).")
    in
    let run profile seed name lalr =
      let g =
        Lg_corpus.Corpus_gen.generate ~name
          (Lg_corpus.Corpus_gen.config_of_profile profile)
          ~seed
      in
      match Lg_corpus.Corpus_gen.build g with
      | Error listing -> `Error (false, listing)
      | Ok b ->
          let d = Lg_corpus.Corpus_gen.describe ~lalr b in
          let row label n = Printf.printf "%-14s %d\n" label n in
          Printf.printf "%-14s %s (%s, seed %d, %s)\n" "grammar"
            d.Lg_corpus.Corpus_gen.d_name
            (Lg_corpus.Corpus_gen.profile_name profile)
            d.Lg_corpus.Corpus_gen.d_seed d.Lg_corpus.Corpus_gen.d_strategy;
          row "terminals" d.Lg_corpus.Corpus_gen.d_terminals;
          row "nonterminals" d.Lg_corpus.Corpus_gen.d_nonterminals;
          row "limbs" d.Lg_corpus.Corpus_gen.d_limbs;
          row "symbols" d.Lg_corpus.Corpus_gen.d_symbols;
          row "attributes" d.Lg_corpus.Corpus_gen.d_attrs;
          row "productions" d.Lg_corpus.Corpus_gen.d_productions;
          row "rules" d.Lg_corpus.Corpus_gen.d_rules;
          row "copy rules" d.Lg_corpus.Corpus_gen.d_copy_rules;
          row "occurrences" d.Lg_corpus.Corpus_gen.d_occurrences;
          row "passes" d.Lg_corpus.Corpus_gen.d_passes;
          (match
             ( d.Lg_corpus.Corpus_gen.d_lalr_states,
               d.Lg_corpus.Corpus_gen.d_lalr_conflicts )
           with
          | Some states, Some conflicts ->
              row "lalr states" states;
              row "conflicts" conflicts
          | _ -> ());
          `Ok ()
    in
    Cmd.v
      (Cmd.info "describe"
         ~doc:
           "Generate and build a grammar, printing size and shape counters.")
      Term.(
        ret
          (const (fun profile seed name lalr ->
               try run profile seed name lalr
               with Invalid_argument msg -> `Error (false, msg))
          $ profile_arg $ seed_arg $ name_arg $ lalr_flag))
  in
  let emit_jobs_cmd =
    let dir_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "dir" ] ~docv:"DIR"
            ~doc:"Corpus root to create: grammars/, inputs/, jobs.json.")
    in
    let grammars_arg =
      Arg.(
        value
        & opt int Lg_corpus.Emit.default.Lg_corpus.Emit.s_grammars
        & info [ "grammars" ] ~docv:"N" ~doc:"Number of tenant grammars.")
    in
    let inputs_arg =
      Arg.(
        value
        & opt int Lg_corpus.Emit.default.Lg_corpus.Emit.s_inputs
        & info [ "inputs" ] ~docv:"K" ~doc:"Inputs per grammar.")
    in
    let input_size_arg =
      Arg.(
        value
        & opt int Lg_corpus.Emit.default.Lg_corpus.Emit.s_input_size
        & info [ "input-size" ] ~docv:"TOKENS"
            ~doc:"Sentence size budget per input, in tokens.")
    in
    let fault_every_arg =
      Arg.(
        value
        & opt int Lg_corpus.Emit.default.Lg_corpus.Emit.s_fault_every
        & info [ "fault-every" ] ~docv:"N"
            ~doc:
              "Give every $(docv)-th $(b,paged)-store job a deterministic \
               transient-read fault spec ($(b,0) for none).")
    in
    let run dir seed profile n_grammars inputs input_size fault_every =
      let spec =
        {
          Lg_corpus.Emit.s_seed = seed;
          s_grammars = n_grammars;
          s_profile = profile;
          s_inputs = inputs;
          s_input_size = input_size;
          s_fault_every = fault_every;
        }
      in
      let corpus = Lg_corpus.Emit.write ~dir spec in
      Printf.eprintf
        "corpus: %d grammars x %d inputs, %d jobs -> %s\n\
         run with: (cd %s && linguist-cli batch jobs.json)\n\
         %!"
        n_grammars inputs
        (List.length corpus.Lg_corpus.Emit.c_jobs)
        dir dir;
      `Ok ()
    in
    Cmd.v
      (Cmd.info "emit-jobs"
         ~doc:
           "Materialize a multi-tenant corpus: grammars, input fleets and \
            one $(b,linguist_jobs:1) jobfile with mixed \
            translate/update/check ops, store cycling and fault specs.")
      Term.(
        ret
          (const (fun dir seed profile g i sz f ->
               try run dir seed profile g i sz f with
               | Invalid_argument msg | Failure msg -> `Error (false, msg))
          $ dir_arg $ seed_arg $ profile_arg $ grammars_arg $ inputs_arg
          $ input_size_arg $ fault_every_arg))
  in
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "Seeded grammar corpus: generate always-evaluable grammars at \
          scale and emit multi-tenant workloads (see docs/CORPUS.md).")
    [ generate_cmd; describe_cmd; emit_jobs_cmd ]

let () =
  let info =
    Cmd.info "linguist-cli" ~version:"1.0"
      ~doc:
        "A translator-writing system based on attribute grammars \
         (a reproduction of LINGUIST-86, Farrow 1982)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd; stats_cmd; compile_cmd; tables_cmd; analyze_cmd;
            self_cmd; stores_cmd; report_cmd; batch_cmd;
            serve_cmd; request_cmd; top_cmd; coordinate_cmd; corpus_cmd;
          ]))
