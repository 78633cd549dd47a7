type action = Token | Skip
type rule = { name : string; pattern : Lg_regex.Regex_syntax.t; action : action }

type t = {
  rules : rule list;
  keywords : (string * string) list;
  keyword_rules : string list;
}

let make ?(keywords = []) ?(keyword_rules = []) rule_specs =
  let seen = Hashtbl.create 16 in
  let rules =
    List.map
      (fun (name, source, action) ->
        if Hashtbl.mem seen name then
          invalid_arg (Printf.sprintf "Spec.make: duplicate rule %S" name);
        Hashtbl.add seen name ();
        let pattern = Lg_regex.Regex_syntax.parse source in
        if Lg_regex.Regex_syntax.nullable pattern then
          invalid_arg
            (Printf.sprintf "Spec.make: rule %S matches the empty string" name);
        { name; pattern; action })
      rule_specs
  in
  { rules; keywords; keyword_rules }
