open Lg_support

type options = {
  subsumption : bool;
  dead_opt : bool;
  max_passes : int;
  emit_listing : bool;
  emit_code : bool;
}

let default_options =
  {
    subsumption = true;
    dead_opt = true;
    max_passes = 16;
    emit_listing = true;
    emit_code = true;
  }

type artifact = {
  ir : Ir.t;
  passes : Pass_assign.result;
  dead : Dead.t;
  alloc : Subsume.allocation;
  plan : Plan.t;
  modules : Pascal_gen.module_code list;
  listing : string;
  diag : Diag.collector;
  overlay_seconds : (string * float) list;
  source_lines : int;
}

(* Every overlay runs inside a span of category "overlay"; the artifact's
   [overlay_seconds] table is read back from those spans, so the timings
   the benches report (experiment E4) and the timings an exported trace
   shows are one measurement. When no tracer is installed, a private one
   supplies the clock. *)
let timed tr name f = Trace.span tr ~cat:"overlay" name f

let overlay_spans tr ~from =
  List.filteri (fun i _ -> i >= from) (Trace.spans tr)
  |> List.filter_map (fun (sp : Trace.span) ->
         if String.equal sp.Trace.sp_cat "overlay" then
           Some (sp.Trace.sp_name, sp.Trace.sp_dur)
         else None)

let analyses ~options ir pr =
  let mode = if options.dead_opt then Dead.Optimized else Dead.Keep_all in
  let dead = Dead.analyze ~mode ir pr in
  let alloc =
    if options.subsumption then Subsume.analyze ir
    else Subsume.none ir
  in
  (dead, alloc)

let plan_of_ir ?(options = default_options) ir =
  let pr, schedules = Pass_assign.compute_exn ~max_passes:options.max_passes ir in
  let dead, alloc = analyses ~options ir pr in
  Schedule.build ir pr ~schedules ~dead ~alloc

let process_run ~options ~file source =
  let diag = Diag.create () in
  let tr =
    let ambient = Trace.ambient () in
    if Trace.enabled ambient then ambient else Trace.create ()
  in
  let mark = Trace.span_count tr in
  Trace.span tr ~cat:"driver" "driver.process" @@ fun () ->
  let source_lines = Lg_scanner.Engine.line_count source in
  let ast = timed tr "parse" (fun () -> Ag_parse.parse ~file ~diag source) in
  match ast with
  | None -> Error diag
  | Some ast -> (
      let ir =
        timed tr "semantic" (fun () -> Check.check ~source_lines ~diag ast)
      in
      match ir with
      | None -> Error diag
      | Some ir -> (
          let pr =
            timed tr "evaluability" (fun () ->
                Pass_assign.compute ~max_passes:options.max_passes ~diag ir)
          in
          match pr with
          | None ->
              (* Tell the user whether the grammar is ill-defined or merely
                 outside the alternating-pass class. *)
              Diag.info diag Loc.dummy "%s" (Circularity.explain_rejection ir);
              Error diag
          | Some (pr, schedules) ->
              let plan =
                timed tr "planning" (fun () ->
                    let dead, alloc = analyses ~options ir pr in
                    Schedule.build ir pr ~schedules ~dead ~alloc)
              in
              let listing =
                if options.emit_listing then
                  timed tr "listing" (fun () ->
                      Listing.generate ~source ~passes:pr
                        ~dead:plan.Plan.dead ~alloc:plan.Plan.alloc ir diag)
                else ""
              in
              let modules =
                if options.emit_code then
                  List.init pr.Pass_assign.n_passes (fun i ->
                      timed tr
                        (Printf.sprintf "codegen pass %d" (i + 1))
                        (fun () -> Pascal_gen.generate_pass plan ~pass:(i + 1)))
                else []
              in
              Ok
                {
                  ir;
                  passes = pr;
                  dead = plan.Plan.dead;
                  alloc = plan.Plan.alloc;
                  plan;
                  modules;
                  listing;
                  diag;
                  overlay_seconds = overlay_spans tr ~from:mark;
                  source_lines;
                }))

(* [process] proper: the front-end run plus its registry view (run and
   error tallies, pass count and grammar size of the last translation). *)
let process ?(options = default_options) ~file source =
  let result = process_run ~options ~file source in
  let m = Metrics.ambient () in
  if Metrics.enabled m then begin
    Metrics.incr m "driver.runs";
    match result with
    | Ok a ->
        Metrics.set_int m "driver.passes" a.passes.Pass_assign.n_passes;
        Metrics.set_int m "driver.source_lines" a.source_lines
    | Error _ -> Metrics.incr m "driver.errors"
  end;
  result

let process_exn ?options ~file source =
  match process ?options ~file source with
  | Ok artifact -> artifact
  | Error diag -> failwith (Format.asprintf "Driver.process:@.%a" Diag.pp_all diag)

let throughput_lines_per_minute artifact =
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 artifact.overlay_seconds in
  if total <= 0.0 then infinity
  else float_of_int artifact.source_lines /. total *. 60.0
