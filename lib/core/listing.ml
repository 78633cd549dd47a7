open Lg_support

let add_source_with_messages buf ~source diag =
  let messages = Diag.to_list diag in
  let by_line = Hashtbl.create 16 in
  List.iter
    (fun (d : Diag.t) ->
      let line = d.span.Loc.start_p.Loc.line in
      Hashtbl.replace by_line line
        (d :: Option.value ~default:[] (Hashtbl.find_opt by_line line)))
    messages;
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      Buffer.add_string buf (Printf.sprintf "%5d  %s\n" lineno line);
      match Hashtbl.find_opt by_line lineno with
      | Some ds ->
          List.iter
            (fun (d : Diag.t) ->
              Buffer.add_string buf
                (Printf.sprintf "***    %s: %s\n"
                   (match d.severity with
                   | Diag.Error -> "ERROR"
                   | Diag.Warning -> "WARNING"
                   | Diag.Info -> "NOTE")
                   d.message))
            (List.rev ds)
      | None -> ())
    lines

let generate ~source ?passes ?dead ?alloc (ir : Ir.t) diag =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "LINGUIST listing for grammar %s\n\n" ir.grammar_name);
  add_source_with_messages buf ~source diag;
  Buffer.add_string buf "\n--- productions and semantic functions ---\n";
  Array.iter
    (fun (p : Ir.production) ->
      let rhs =
        Array.to_list p.p_rhs
        |> List.map (fun s -> ir.symbols.(s).Ir.s_name)
        |> String.concat " "
      in
      Buffer.add_string buf
        (Printf.sprintf "\n%s ::= %s  -> %s\n" ir.symbols.(p.p_lhs).Ir.s_name
           rhs p.p_tag);
      let explicit, implicit =
        List.partition (fun rid -> not ir.rules.(rid).Ir.r_implicit) p.p_rules
      in
      let emit_rule rid =
        let r = ir.rules.(rid) in
        let pass_note =
          match passes with
          | None -> ""
          | Some pr ->
              let pass =
                Array.fold_left
                  (fun acc t -> max acc pr.Pass_assign.passes.(t.Ir.attr))
                  1 r.Ir.r_targets
              in
              Printf.sprintf "   # pass %d" pass
        in
        Buffer.add_string buf
          (Format.asprintf "    %a%s\n" (Ir.pp_rule ir) r pass_note)
      in
      List.iter emit_rule explicit;
      List.iter emit_rule implicit)
    ir.prods;
  (match (passes, dead) with
  | Some pr, Some dead ->
      Buffer.add_string buf "\n--- attributes ---\n";
      Buffer.add_string buf
        "    symbol.attribute            kind        pass  last use  storage\n";
      Array.iter
        (fun (a : Ir.attr) ->
          let kind =
            match a.a_kind with
            | Ir.Inherited -> "inherited"
            | Ir.Synthesized -> "synthesized"
            | Ir.Intrinsic -> "intrinsic"
            | Ir.Limb_attr -> "limb"
          in
          let storage =
            match alloc with
            | Some alloc when alloc.Subsume.static.(a.a_id) ->
                Printf.sprintf "static (global %d)" alloc.Subsume.global_of.(a.a_id)
            | _ ->
                if Dead.is_temporary dead a.a_id then "temporary (stack only)"
                else "significant (in APT files)"
          in
          Buffer.add_string buf
            (Printf.sprintf "    %-26s  %-11s %4d  %8d  %s\n"
               (ir.symbols.(a.a_sym).Ir.s_name ^ "." ^ a.a_name)
               kind
               pr.Pass_assign.passes.(a.a_id)
               (Dead.last_use dead a.a_id)
               storage))
        ir.attrs
  | _ -> ());
  Buffer.add_string buf "\n--- statistics ---\n";
  Buffer.add_string buf (Format.asprintf "%a\n" Ir.pp_stats (Ir.stats ir));
  (match passes with
  | Some pr ->
      Buffer.add_string buf
        (Printf.sprintf "evaluable in %d alternating passes (first pass %s)\n"
           pr.Pass_assign.n_passes
           (match Pass_assign.direction pr 1 with
           | Pass_assign.L2r -> "left-to-right"
           | Pass_assign.R2l -> "right-to-left"))
  | None -> ());
  Buffer.contents buf

let errors_only ~source ~file diag =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "LINGUIST listing for %s (errors)\n\n" file);
  add_source_with_messages buf ~source diag;
  Buffer.add_string buf
    (Printf.sprintf "\n%d error(s), %d message(s)\n" (Diag.error_count diag)
       (Diag.count diag));
  Buffer.contents buf
