let max_bytes = 9

let rec add buf u =
  if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x7f)));
    add buf (u lsr 7)
  end

let rec read_from s start pos shift acc =
  if pos >= String.length s then failwith "varint runs off the payload";
  if pos - start >= max_bytes then
    failwith (Printf.sprintf "varint longer than %d bytes" max_bytes);
  let byte = Char.code s.[pos] in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte land 0x80 = 0 then (acc, pos + 1)
  else read_from s start (pos + 1) (shift + 7) acc

let read s start = read_from s start start 0 0
