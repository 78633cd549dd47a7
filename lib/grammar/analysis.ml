module Iset = Set.Make (Int)

type t = {
  grammar : Cfg.t;
  nullable : bool array;
  first : Iset.t array;  (** per nonterminal *)
  heights : int array;  (** min derivation height per nonterminal *)
}

let compute (g : Cfg.t) =
  let nnt = Cfg.nonterminal_count g in
  let nullable = Array.make nnt false in
  let first = Array.make nnt Iset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Cfg.production) ->
        (* nullable *)
        if not nullable.(p.lhs) then
          if
            Array.for_all
              (function Cfg.T _ -> false | Cfg.NT m -> nullable.(m))
              p.rhs
          then begin
            nullable.(p.lhs) <- true;
            changed := true
          end;
        (* first *)
        let before = first.(p.lhs) in
        let rec add i acc =
          if i >= Array.length p.rhs then acc
          else
            match p.rhs.(i) with
            | Cfg.T t -> Iset.add t acc
            | Cfg.NT m ->
                let acc = Iset.union first.(m) acc in
                if nullable.(m) then add (i + 1) acc else acc
        in
        let after = add 0 before in
        if not (Iset.equal before after) then begin
          first.(p.lhs) <- after;
          changed := true
        end)
      g.productions
  done;
  (* min heights *)
  let heights = Array.make nnt max_int in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Cfg.production) ->
        let h =
          Array.fold_left
            (fun acc sym ->
              match sym with
              | Cfg.T _ -> max acc 0
              | Cfg.NT m ->
                  if heights.(m) = max_int || acc = max_int then max_int
                  else max acc heights.(m))
            0 p.rhs
        in
        if h <> max_int && h + 1 < heights.(p.lhs) then begin
          heights.(p.lhs) <- h + 1;
          changed := true
        end)
      g.productions
  done;
  { grammar = g; nullable; first; heights }

let nullable_nt t nt = t.nullable.(nt)

let nullable_symbol t = function
  | Cfg.T _ -> false
  | Cfg.NT m -> t.nullable.(m)

let nullable_seq t rhs ~from =
  let n = Array.length rhs in
  let rec go i = i >= n || (nullable_symbol t rhs.(i) && go (i + 1)) in
  go from

let first_nt t nt = Iset.elements t.first.(nt)

let first_seq t rhs ~from ~extra =
  let n = Array.length rhs in
  let rec go i acc =
    if i >= n then List.fold_left (fun acc x -> Iset.add x acc) acc extra
    else
      match rhs.(i) with
      | Cfg.T term -> Iset.add term acc
      | Cfg.NT m ->
          let acc = Iset.union t.first.(m) acc in
          if t.nullable.(m) then go (i + 1) acc else acc
  in
  Iset.elements (go from Iset.empty)

(* FOLLOW, computed afresh on every call: no table construction reads
   it, so the analysis does not pay for it. *)
let follow_nt t nt =
  let g = t.grammar in
  let first_symbol = function
    | Cfg.T term -> Iset.singleton term
    | Cfg.NT m -> t.first.(m)
  in
  let follow = Array.make (Cfg.nonterminal_count g) Iset.empty in
  follow.(g.start) <- Iset.singleton Cfg.eof;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Cfg.production) ->
        let n = Array.length p.rhs in
        for i = 0 to n - 1 do
          match p.rhs.(i) with
          | Cfg.T _ -> ()
          | Cfg.NT m ->
              let before = follow.(m) in
              let rec from j acc =
                if j >= n then Iset.union follow.(p.lhs) acc
                else
                  let acc = Iset.union (first_symbol p.rhs.(j)) acc in
                  if nullable_symbol t p.rhs.(j) then from (j + 1) acc else acc
              in
              let after = from (i + 1) before in
              if not (Iset.equal before after) then begin
                follow.(m) <- after;
                changed := true
              end
        done)
      g.productions
  done;
  Iset.elements follow.(nt)
let min_height t nt = t.heights.(nt)

let min_height_production t (p : Cfg.production) =
  Array.fold_left
    (fun acc sym ->
      match sym with
      | Cfg.T _ -> acc
      | Cfg.NT m ->
          if t.heights.(m) = max_int || acc = max_int then max_int
          else max acc t.heights.(m))
    0 p.rhs
