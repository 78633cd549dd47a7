type pos = { line : int; col : int; offset : int }
type span = { file : string; start_p : pos; end_p : pos }

let start_pos = { line = 1; col = 1; offset = 0 }

let advance p c =
  if Char.equal c '\n' then
    { line = p.line + 1; col = 1; offset = p.offset + 1 }
  else { p with col = p.col + 1; offset = p.offset + 1 }

let dummy = { file = "<builtin>"; start_p = start_pos; end_p = start_pos }
let span file start_p end_p = { file; start_p; end_p }

let compare_span a b =
  match compare a.start_p.offset b.start_p.offset with
  | 0 -> compare a.end_p.offset b.end_p.offset
  | n -> n

let pp_pos ppf p = Format.fprintf ppf "%d.%d" p.line p.col
let pp ppf s = Format.fprintf ppf "%s:%a" s.file pp_pos s.start_p
