open Lg_support

type token = { kind : string; lexeme : string; span : Loc.span }

let pp_token ppf t = Format.fprintf ppf "%s(%S)@%a" t.kind t.lexeme Loc.pp t.span

(* The position after [input.[pos.offset .. stop - 1]]. *)
let advance_to pos input stop =
  let line = ref pos.Loc.line and col = ref pos.Loc.col in
  for i = pos.Loc.offset to stop - 1 do
    if Char.equal (String.unsafe_get input i) '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  { Loc.line = !line; col = !col; offset = stop }

let tokens tables ~file ~diag input =
  let dfa = Tables.dfa tables in
  let n = String.length input in
  let rec go pos () =
    if pos.Loc.offset >= n then Seq.Nil
    else
      let m = Lg_regex.Dfa.longest_match dfa input pos.Loc.offset in
      if m < 0 then begin
        let c = input.[pos.Loc.offset] in
        let next = Loc.advance pos c in
        Diag.error diag (Loc.span file pos next) "illegal character %C" c;
        go next ()
      end
      else
        let rule = Tables.rule_of_id tables (Lg_regex.Dfa.match_rule m) in
        let stop = Lg_regex.Dfa.match_end m in
        let next = advance_to pos input stop in
        match rule.Spec.action with
        | Skip -> go next ()
        | Token ->
            let lexeme = String.sub input pos.Loc.offset (stop - pos.Loc.offset) in
            let kind = Tables.keyword_kind tables ~rule_name:rule.Spec.name ~lexeme in
            Seq.Cons ({ kind; lexeme; span = Loc.span file pos next }, go next)
  in
  go Loc.start_pos

let scan tables ~file ~diag input =
  List.of_seq (tokens tables ~file ~diag input)

let line_count input =
  let lines = ref 0 and saw_tail = ref false in
  String.iter
    (fun c ->
      if Char.equal c '\n' then begin
        incr lines;
        saw_tail := false
      end
      else saw_tail := true)
    input;
  if !saw_tail then !lines + 1 else !lines
