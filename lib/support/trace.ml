type arg = Int of int | Float of float | Str of string

type span = {
  sp_name : string;
  sp_cat : string;
  sp_depth : int;
  sp_start : float;
  sp_dur : float;
  sp_args : (string * arg) list;
}

type open_span = {
  o_name : string;
  o_cat : string;
  o_depth : int;
  o_start : float;
  mutable o_args : (string * arg) list;  (* reversed *)
}

type t = {
  on : bool;
  clock : unit -> float;
  epoch : float;
  lock : Mutex.t;
  mutable stack : open_span list;  (* innermost first *)
  mutable closed : span list;  (* completion order, reversed *)
  mutable n_closed : int;
  tallies : (string, int ref) Hashtbl.t;
}

let null =
  {
    on = false;
    clock = (fun () -> 0.0);
    epoch = 0.0;
    lock = Mutex.create ();
    stack = [];
    closed = [];
    n_closed = 0;
    tallies = Hashtbl.create 1;
  }

let create ?(clock = Unix.gettimeofday) () =
  {
    on = true;
    clock;
    epoch = clock ();
    lock = Mutex.create ();
    stack = [];
    closed = [];
    n_closed = 0;
    tallies = Hashtbl.create 16;
  }

let enabled t = t.on
let now t = t.clock () -. t.epoch

(* Every enabled-path mutation and snapshot runs under the tracer's
   mutex; the disabled path ([null]) stays one field check. The span
   stack remains a single well-nested story — concurrent writers should
   record into private tracers and {!absorb} them — but counters and
   absorption are meaningful (and safe) from any number of domains. *)
let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let begin_span t ?(cat = "") name =
  if t.on then
    locked t @@ fun () ->
    t.stack <-
      {
        o_name = name;
        o_cat = cat;
        o_depth = List.length t.stack;
        o_start = now t;
        o_args = [];
      }
      :: t.stack

let end_span t ?(args = []) () =
  if t.on then
    locked t @@ fun () ->
    match t.stack with
    | [] -> ()
    | o :: rest ->
        t.stack <- rest;
        t.closed <-
          {
            sp_name = o.o_name;
            sp_cat = o.o_cat;
            sp_depth = o.o_depth;
            sp_start = o.o_start;
            sp_dur = now t -. o.o_start;
            sp_args = List.rev_append o.o_args args;
          }
          :: t.closed;
        t.n_closed <- t.n_closed + 1

let span t ?cat ?(args = []) name f =
  if not t.on then f ()
  else begin
    begin_span t ?cat name;
    Fun.protect ~finally:(fun () -> end_span t ~args ()) f
  end

let add_args t args =
  if t.on then
    locked t @@ fun () ->
    match t.stack with
    | [] -> ()
    | o :: _ -> o.o_args <- List.rev_append args o.o_args

let open_depth t = locked t @@ fun () -> List.length t.stack

let counter t name n =
  if t.on then
    locked t @@ fun () ->
    match Hashtbl.find_opt t.tallies name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace t.tallies name (ref n)

let counters t =
  locked t @@ fun () ->
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.tallies []
  |> List.sort compare

let spans t = locked t @@ fun () -> List.rev t.closed
let span_count t = locked t @@ fun () -> t.n_closed

let open_spans t =
  locked t @@ fun () ->
  let at = now t in
  List.rev_map
    (fun o ->
      {
        sp_name = o.o_name;
        sp_cat = o.o_cat;
        sp_depth = o.o_depth;
        sp_start = o.o_start;
        sp_dur = at -. o.o_start;
        sp_args = List.rev o.o_args;
      })
    t.stack

let epoch t = t.epoch
let elapsed t = now t

(* Splice a finished private tracer into [t]: its closed spans reappear
   shifted to [t]'s epoch and nested under [t]'s currently open spans
   (completion order is preserved, so the forest reconstruction in the
   summary exporter adopts them as children of whichever span of [t]
   closes next). Counters accumulate by name. *)
let absorb t child =
  if t.on && child.on then begin
    let child_spans = spans child in
    let child_counters = counters child in
    let shift = child.epoch -. t.epoch in
    (locked t @@ fun () ->
     let base = List.length t.stack in
     List.iter
       (fun sp ->
         t.closed <-
           { sp with sp_depth = sp.sp_depth + base; sp_start = sp.sp_start +. shift }
           :: t.closed;
         t.n_closed <- t.n_closed + 1)
       child_spans);
    List.iter (fun (name, n) -> counter t name n) child_counters
  end

(* ---------- ambient tracer ---------- *)

(* Domain-local: each domain starts with the null tracer and installs
   its own. Pool workers install a private per-job tracer and the parent
   absorbs it, so one domain's install never clobbers another's. *)
let ambient_state = Domain.DLS.new_key (fun () -> (null, false))

let install ?(attr_counts = false) t =
  Domain.DLS.set ambient_state (t, attr_counts)

let ambient () = fst (Domain.DLS.get ambient_state)
let ambient_attr_counts () = snd (Domain.DLS.get ambient_state)

(* ---------- summary exporter ---------- *)

(* Rebuild the forest from the completion-order list: when a span at depth
   d closes, every not-yet-claimed span at depth d+1 is one of its
   children (children always complete before their parent). *)
type tree = { node : span; children : tree list }

let forest_of_spans spans =
  let pending = Hashtbl.create 8 in
  let take depth =
    match Hashtbl.find_opt pending depth with
    | Some l ->
        Hashtbl.remove pending depth;
        List.rev l
    | None -> []
  in
  let put depth tr =
    Hashtbl.replace pending depth
      (tr :: Option.value ~default:[] (Hashtbl.find_opt pending depth))
  in
  List.iter
    (fun sp -> put sp.sp_depth { node = sp; children = take (sp.sp_depth + 1) })
    spans;
  take 0

(* Merge same-named siblings: count, summed duration, summed Int args. *)
type agg = {
  ag_name : string;
  mutable ag_count : int;
  mutable ag_dur : float;
  mutable ag_args : (string * int) list;
  mutable ag_children : agg list;  (* reversed while building *)
}

let rec aggregate trees =
  let out = ref [] in
  List.iter
    (fun { node; children } ->
      let a =
        match
          List.find_opt (fun a -> String.equal a.ag_name node.sp_name) !out
        with
        | Some a -> a
        | None ->
            let a =
              {
                ag_name = node.sp_name;
                ag_count = 0;
                ag_dur = 0.0;
                ag_args = [];
                ag_children = [];
              }
            in
            out := a :: !out;
            a
      in
      a.ag_count <- a.ag_count + 1;
      a.ag_dur <- a.ag_dur +. node.sp_dur;
      List.iter
        (fun (k, v) ->
          match v with
          | Int n ->
              a.ag_args <-
                (match List.assoc_opt k a.ag_args with
                | Some m -> (k, m + n) :: List.remove_assoc k a.ag_args
                | None -> (k, n) :: a.ag_args)
          | Float _ | Str _ -> ())
        node.sp_args;
      a.ag_children <- aggregate children @ a.ag_children)
    trees;
  List.rev !out

let rec merge_aggs l =
  (* children were appended per-occurrence; merge them by name too *)
  let merged = ref [] in
  List.iter
    (fun a ->
      match
        List.find_opt (fun b -> String.equal b.ag_name a.ag_name) !merged
      with
      | Some b ->
          b.ag_count <- b.ag_count + a.ag_count;
          b.ag_dur <- b.ag_dur +. a.ag_dur;
          List.iter
            (fun (k, n) ->
              b.ag_args <-
                (match List.assoc_opt k b.ag_args with
                | Some m -> (k, m + n) :: List.remove_assoc k b.ag_args
                | None -> (k, n) :: b.ag_args))
            a.ag_args;
          b.ag_children <- b.ag_children @ a.ag_children
      | None -> merged := a :: !merged)
    l;
  List.rev_map
    (fun a ->
      a.ag_children <- merge_aggs (List.rev a.ag_children);
      a)
    !merged
  |> List.rev

let pp_summary ppf t =
  let rec pp_agg indent a =
    Format.fprintf ppf "%s%-*s %4dx %10.6f s" indent
      (max 1 (32 - String.length indent))
      a.ag_name a.ag_count a.ag_dur;
    (match List.sort compare a.ag_args with
    | [] -> ()
    | args ->
        Format.fprintf ppf "  [%s]"
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) args)));
    Format.fprintf ppf "@.";
    List.iter (pp_agg (indent ^ "  ")) a.ag_children
  in
  Format.fprintf ppf "trace summary (%d spans, %.6f s)@." t.n_closed
    (elapsed t);
  List.iter (pp_agg "  ") (merge_aggs (aggregate (forest_of_spans (spans t))));
  match counters t with
  | [] -> ()
  | cs ->
      Format.fprintf ppf "  counters:@.";
      List.iter (fun (k, v) -> Format.fprintf ppf "    %-30s %12d@." k v) cs

(* ---------- Chrome trace_event exporter ---------- *)

(* String escaping and value formatting are Json_out's; only the
   line-per-event layout (friendly to streaming and diffing) is local. *)
let json_escape = Json_out.escape

let arg_json = function
  | Int n -> Json_out.int n
  | Float f -> Json_out.Num f
  | Str s -> Json_out.Str s

let json_of_args args =
  Json_out.to_string
    (Json_out.Obj (List.map (fun (k, v) -> (k, arg_json v)) args))

let us seconds = seconds *. 1e6

let to_chrome_json ?(process_name = "linguist") t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"%s\"}}"
       (json_escape process_name));
  List.iter
    (fun sp ->
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":%s}"
           (json_escape sp.sp_name)
           (json_escape (if String.equal sp.sp_cat "" then "span" else sp.sp_cat))
           (us sp.sp_start) (us sp.sp_dur)
           (json_of_args sp.sp_args)))
    (spans t);
  let t_end = us (elapsed t) in
  List.iter
    (fun (name, v) ->
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"%s\":%d}}"
           (json_escape name) t_end (json_escape name) v))
    (counters t);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_chrome ?process_name t ~path =
  let oc = open_out path in
  output_string oc (to_chrome_json ?process_name t);
  close_out oc
