type t = bool

let null = false
let create () = true
let enabled t = t

(* The lifecycle events one span stands for, as (rank, time, kind,
   fields). Rank is the kind's place in the documented order, so ties
   and clock steps can never reorder a job's story. *)
let span_events ~epoch ~closed (sp : Trace.span) =
  let at ~rank offset kind fields =
    (rank, epoch +. sp.Trace.sp_start +. offset, kind, fields)
  in
  let timing =
    [ ("name", Json_out.Str sp.Trace.sp_name); ("seconds", Json_out.Num sp.Trace.sp_dur) ]
  in
  match (sp.Trace.sp_cat, sp.Trace.sp_name) with
  | "queue", "queue.wait" ->
      at ~rank:0 0.0 "submitted"
        (List.map (fun (k, v) -> (k, Trace.arg_json v)) sp.Trace.sp_args)
      ::
      (if closed then
         [
           at ~rank:1 sp.Trace.sp_dur "dequeued"
             [ ("queue_wait_seconds", Json_out.Num sp.Trace.sp_dur) ];
         ]
       else [])
  | "serve", "run" -> [ at ~rank:2 0.0 "started" [] ]
  | "session", kind when closed -> [ at ~rank:3 sp.Trace.sp_dur kind timing ]
  | "pass", _ when closed -> [ at ~rank:3 sp.Trace.sp_dur "pass" timing ]
  | _ -> []

let postmortem_json tr ~job ~reason ~exit_code ~detail ~trace =
  let epoch = Trace.epoch tr in
  let derived =
    List.concat_map (span_events ~epoch ~closed:true) (Trace.spans tr)
    @ List.concat_map (span_events ~epoch ~closed:false) (Trace.open_spans tr)
    |> List.stable_sort (fun (r1, t1, _, _) (r2, t2, _, _) ->
           compare (r1, t1) (r2, t2))
  in
  let failed =
    ( 4,
      Unix.gettimeofday (),
      "failed",
      [ ("exit", Json_out.int exit_code); ("error", Json_out.Str detail) ] )
  in
  let event seq (_, time, kind, fields) =
    Json_out.Obj
      ([
         ("seq", Json_out.int seq);
         ("time", Json_out.Num time);
         ("job", Json_out.Str job);
         ("trace", Json_out.Str trace);
         ("kind", Json_out.Str kind);
       ]
      @ fields)
  in
  Json_out.Obj
    [
      ("linguist_postmortem", Json_out.int 1);
      ("job", Json_out.Str job);
      ("reason", Json_out.Str reason);
      ("exit", Json_out.int exit_code);
      ("detail", Json_out.Str detail);
      ("trace", Json_out.Str trace);
      ("events", Json_out.Arr (List.mapi event (derived @ [ failed ])));
    ]
