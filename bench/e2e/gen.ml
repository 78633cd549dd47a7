(* Seeded input generators. The seed picks content and order; sizes are
   fixed per call, so every seed costs the program about the same work
   and run-to-run spread measures the system, not the draw. All
   randomness comes from [Lg_corpus.Prng], which is stable across
   machines and OCaml releases. *)

module Prng = Lg_corpus.Prng

let stream seed salt = Prng.create (Prng.derive seed salt)

(* Fisher-Yates over a copy. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* An AG source with [n] chained productions for the translator generated
   from linguist.ag: syntactically valid and semantically clean, the
   shape of bench/workloads.ml's [synthetic_ag] with seeded constants. *)
let ag ~seed n =
  let rng = stream seed 1 in
  let buf = Buffer.create (n * 96) in
  Buffer.add_string buf
    "grammar Big;\nroot a0;\nterminals T; end\nnonterminals\n";
  for i = 0 to n do
    Printf.bprintf buf "  a%d has syn X : t, inh D : t;\n" i
  done;
  Buffer.add_string buf "end\nlimbs\n";
  for i = 0 to n do
    Printf.bprintf buf "  L%d has TMP : t;\n" i
  done;
  Buffer.add_string buf "end\nproductions\n";
  for i = 0 to n - 1 do
    Printf.bprintf buf
      "  a%d ::= a%d -> L%d :\n\
      \    L%d.TMP = a%d.D + %d,\n\
      \    a%d.D = TMP,\n\
      \    a%d.X = a%d.X + TMP;\n"
      i (i + 1) i i i
      (1 + Prng.int rng 9)
      (i + 1) i (i + 1)
  done;
  Printf.bprintf buf
    "  a%d ::= T -> L%d :\n    L%d.TMP = 0,\n    a%d.X = a%d.D;\nend\n" n n n
    n n;
  Buffer.contents buf

(* Pascal-subset statements. Every kind type-checks against the three
   integer variables the program header declares. *)
let pascal_stmt kind c =
  match kind with
  | 0 -> Printf.sprintf "x := x + %d" c
  | 1 -> Printf.sprintf "y := y + x - %d" c
  | 2 -> Printf.sprintf "z := z + x * %d - y" c
  | 3 -> "writeln(z)"
  | 4 -> Printf.sprintf "if x > %d then z := z + 1 else z := z - %d" c c
  | _ -> Printf.sprintf "while x < %d do begin x := x + 1; y := y - 1 end" c

let pascal_kinds = 6

(* [n] statements drawn from a deck with a fixed count of each kind, so
   the tree size does not depend on the seed. *)
let pascal_stmts ~seed n =
  let rng = stream seed 2 in
  let deck = shuffle rng (Array.init n (fun i -> i mod pascal_kinds)) in
  Array.map (fun k -> (k, 1 + Prng.int rng 9)) deck

let pascal_of_stmts stmts =
  let buf = Buffer.create (Array.length stmts * 32) in
  Buffer.add_string buf
    "program big;\n\
     var x : integer; y : integer; z : integer;\n\
     begin\n\
    \  x := 1;\n\
    \  y := 2;\n\
    \  z := 0";
  Array.iter
    (fun (k, c) ->
      Buffer.add_string buf ";\n  ";
      Buffer.add_string buf (pascal_stmt k c))
    stmts;
  Buffer.add_string buf "\nend.\n";
  Buffer.contents buf

let pascal ~seed n = pascal_of_stmts (pascal_stmts ~seed n)

(* A one-statement edit: a statement that has a constant keeps its kind
   and takes a new constant, so a document's size never drifts under a
   stream of edits. *)
let edit rng stmts =
  let rec pick () =
    let p = Prng.int rng (Array.length stmts) in
    if fst stmts.(p) = 3 then pick () else p
  in
  let p = pick () in
  let k, c = stmts.(p) in
  let stmts = Array.copy stmts in
  stmts.(p) <- (k, 1 + ((c + Prng.int rng 8) mod 9));
  stmts

(* A desk-calculator program with [n] statements. *)
let calc ~seed n =
  let rng = stream seed 3 in
  let buf = Buffer.create (n * 24) in
  Buffer.add_string buf "a := 1;\nb := 2;\n";
  for i = 1 to n do
    if i mod 5 = 0 then Buffer.add_string buf "print a + b;\n"
    else
      Printf.bprintf buf "%s := a + b - %d;\n"
        (if i mod 2 = 0 then "a" else "b")
        (Prng.int rng 11)
  done;
  Buffer.contents buf
