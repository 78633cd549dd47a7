type t = {
  dfa : Lg_regex.Dfa.t;
  spec : Spec.t;
  rules : Spec.rule array;
  keyword_table : (string, string) Hashtbl.t;
  keyword_rule_set : (string, unit) Hashtbl.t;
}

let compile (spec : Spec.t) =
  let tr = Lg_support.Trace.ambient () in
  Lg_support.Trace.span tr ~cat:"tables" "scanner.compile" @@ fun () ->
  let rules = Array.of_list spec.rules in
  let tagged =
    List.mapi (fun idx (rule : Spec.rule) -> (rule.pattern, idx)) spec.rules
  in
  let nfa =
    Lg_support.Trace.span tr ~cat:"tables" "scanner.nfa" (fun () ->
        Lg_regex.Nfa.build tagged)
  in
  let dfa0 =
    Lg_support.Trace.span tr ~cat:"tables" "scanner.determinize" (fun () ->
        Lg_regex.Dfa.of_nfa nfa)
  in
  let dfa =
    Lg_support.Trace.span tr ~cat:"tables" "scanner.minimize" (fun () ->
        Lg_regex.Dfa.minimize dfa0)
  in
  Lg_support.Trace.add_args tr
    [ ("dfa_table_bytes", Lg_support.Trace.Int (Lg_regex.Dfa.table_bytes dfa)) ];
  let m = Lg_support.Metrics.ambient () in
  if Lg_support.Metrics.enabled m then begin
    Lg_support.Metrics.incr m "scanner.compiles";
    Lg_support.Metrics.set_int m "scanner.dfa_table_bytes"
      (Lg_regex.Dfa.table_bytes dfa)
  end;
  let keyword_table = Hashtbl.create 32 in
  List.iter (fun (lexeme, kind) -> Hashtbl.replace keyword_table lexeme kind) spec.keywords;
  let keyword_rule_set = Hashtbl.create 4 in
  List.iter (fun name -> Hashtbl.replace keyword_rule_set name ()) spec.keyword_rules;
  { dfa; spec; rules; keyword_table; keyword_rule_set }

let dfa t = t.dfa
let spec t = t.spec
let rule_of_id t id = t.rules.(id)

let keyword_kind t ~rule_name ~lexeme =
  if Hashtbl.mem t.keyword_rule_set rule_name then
    match Hashtbl.find_opt t.keyword_table lexeme with
    | Some kind -> kind
    | None -> rule_name
  else rule_name

let size_bytes t =
  let keyword_bytes =
    Hashtbl.fold
      (fun lexeme kind acc -> acc + String.length lexeme + String.length kind + 4)
      t.keyword_table 0
  in
  Lg_regex.Dfa.table_bytes t.dfa + keyword_bytes
