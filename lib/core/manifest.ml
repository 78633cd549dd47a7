open Lg_support

let version = 1

let direction_name = function
  | Pass_assign.L2r -> "l2r"
  | Pass_assign.R2l -> "r2l"

let strategy_name = function
  | Ag_ast.Bottom_up -> "bottom_up"
  | Ag_ast.Recursive_descent -> "recursive_descent"

let build ?command ~file (a : Driver.artifact) =
  let open Json_out in
  let s = Ir.stats a.Driver.ir in
  let report = Subsume.report a.Driver.ir a.Driver.alloc in
  let pr = a.Driver.passes in
  let grammar =
    Obj
      [
        ("lines", int s.Ir.lines);
        ("symbols", int s.Ir.n_symbols);
        ("attributes", int s.Ir.n_attrs);
        ("productions", int s.Ir.n_prods);
        ("attribute_occurrences", int s.Ir.n_occurrences);
        ("semantic_functions", int s.Ir.n_rules);
        ("copy_rules", int s.Ir.n_copy_rules);
        ( "copy_rule_share_pct",
          int (100 * s.Ir.n_copy_rules / max 1 s.Ir.n_rules) );
        ("implicit_copy_rules", int s.Ir.n_implicit_copy_rules);
      ]
  in
  let subsumption =
    Obj
      [
        ("candidates", int report.Subsume.candidates);
        ("chosen", int report.Subsume.chosen);
        ("subsumed_copy_rules", int report.Subsume.subsumed_copy_rules);
        ("evictions", int report.Subsume.evictions);
      ]
  in
  let attributes =
    Obj
      [
        ("temporary", int (Dead.temporary_count a.Driver.dead));
        ("significant", int (Dead.significant_count a.Driver.dead));
      ]
  in
  let plan =
    Obj
      [
        ("passes", int pr.Pass_assign.n_passes);
        ("strategy", Str (strategy_name pr.Pass_assign.strategy));
        ( "directions",
          Arr
            (List.init pr.Pass_assign.n_passes (fun i ->
                 Str (direction_name (Pass_assign.direction pr (i + 1))))) );
      ]
  in
  let overlays =
    Obj
      (List.map (fun (name, seconds) -> (name, Num seconds)) a.Driver.overlay_seconds)
  in
  Obj
    (("linguist_manifest", int version)
    :: (match command with Some c -> [ ("command", Str c) ] | None -> [])
    @ [
        ("file", Str file);
        ("grammar", grammar);
        ("subsumption", subsumption);
        ("attributes", attributes);
        ("plan", plan);
        ("overlays", overlays);
        ( "throughput_lines_per_minute",
          Num (Driver.throughput_lines_per_minute a) );
        ("metrics", Metrics.to_json (Metrics.ambient ()));
      ])

let write ~dest doc =
  let s = Json_out.to_string ~pretty:true doc in
  if String.equal dest "-" then (
    print_string s;
    print_newline ())
  else begin
    let oc = open_out dest in
    output_string oc s;
    output_char oc '\n';
    close_out oc
  end

(* ---------- human rendering (the [report] subcommand) ---------- *)

let scalar_string = function
  | Json_out.Null -> Some "-"
  | Json_out.Bool b -> Some (string_of_bool b)
  | Json_out.Num f -> Some (Json_out.number f)
  | Json_out.Str s -> Some s
  | Json_out.Arr _ | Json_out.Obj _ -> None

(* A histogram snapshot renders as one line: its shape matters less in a
   report than its totals. *)
let histogram_line = function
  | Json_out.Obj members as j -> (
      match
        ( Json_out.member "count" j,
          Json_out.member "sum" j,
          Json_out.member "buckets" j )
      with
      | Some (Json_out.Num count), Some (Json_out.Num sum), Some (Json_out.Arr _)
        when List.length members = 4 ->
          Some
            (Printf.sprintf "histogram: %s observations, sum %s"
               (Json_out.number count) (Json_out.number sum))
      | _ -> None)
  | _ -> None

let rec pp_members ppf ~indent members =
  List.iter
    (fun (name, v) ->
      match scalar_string v with
      | Some s -> Format.fprintf ppf "%s%-34s %s@," indent name s
      | None -> (
          match histogram_line v with
          | Some line -> Format.fprintf ppf "%s%-34s %s@," indent name line
          | None -> (
              match v with
              | Json_out.Arr items
                when List.for_all (fun i -> scalar_string i <> None) items ->
                  Format.fprintf ppf "%s%-34s %s@," indent name
                    (String.concat ", "
                       (List.map
                          (fun i -> Option.get (scalar_string i))
                          items))
              | Json_out.Obj inner ->
                  Format.fprintf ppf "%s%s@," indent name;
                  pp_members ppf ~indent:(indent ^ "  ") inner
              | Json_out.Arr items ->
                  Format.fprintf ppf "%s%s@," indent name;
                  List.iteri
                    (fun i item ->
                      match item with
                      | Json_out.Obj inner ->
                          Format.fprintf ppf "%s  [%d]@," indent i;
                          pp_members ppf ~indent:(indent ^ "    ") inner
                      | _ ->
                          Format.fprintf ppf "%s  [%d] %s@," indent i
                            (Json_out.to_string item))
                    items
              | _ -> ())))
    members

let pp ppf doc =
  Format.fprintf ppf "@[<v 0>";
  (match doc with
  | Json_out.Obj members ->
      (* Top level: scalars first as a header block, then one section per
         compound member. *)
      List.iter
        (fun (name, v) ->
          match scalar_string v with
          | Some s -> Format.fprintf ppf "%-34s %s@," name s
          | None -> ())
        members;
      List.iter
        (fun (name, v) ->
          if scalar_string v = None then begin
            Format.fprintf ppf "@,%s@," name;
            match v with
            | Json_out.Obj inner -> pp_members ppf ~indent:"  " inner
            | other -> pp_members ppf ~indent:"  " [ ("value", other) ]
          end)
        members
  | other -> Format.fprintf ppf "%s@," (Json_out.to_string ~pretty:true other));
  Format.fprintf ppf "@]"
