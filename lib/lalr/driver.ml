open Lg_grammar

type 'tok input = (int * 'tok) Seq.t
type error = { at : int; state : int; expected : int list }

let parse tables ~shift ~reduce input =
  let g = Tables.grammar tables in
  (* Stacks: states and semantic values, kept in lockstep; the state stack
     has one more entry (the start state) than the value stack. The
     lookahead is the current node of [input]: its tail is forced only
     once the node's token has been shifted, and nothing keeps a consumed
     node. *)
  let rec run states values idx (lookahead : (int * _) Seq.node) =
    let state = match states with s :: _ -> s | [] -> assert false in
    let terminal =
      match lookahead with Seq.Cons ((t, _), _) -> t | Seq.Nil -> Cfg.eof
    in
    match Tables.action tables ~state ~terminal with
    | Tables.Shift next -> (
        match lookahead with
        | Seq.Cons ((_, payload), rest) ->
            let value = shift terminal payload in
            run (next :: states) (value :: values) (idx + 1) (rest ())
        | Seq.Nil -> assert false)
    | Tables.Reduce prod ->
        let rhs_len = Array.length g.productions.(prod).rhs in
        let rec pop n states values acc =
          if n = 0 then (states, values, acc)
          else
            match (states, values) with
            | _ :: states, v :: values -> pop (n - 1) states values (v :: acc)
            | _ -> assert false
        in
        let states, values, children = pop rhs_len states values [] in
        let value = reduce prod children in
        let state = match states with s :: _ -> s | [] -> assert false in
        let lhs = g.productions.(prod).lhs in
        (match Tables.goto_nt tables ~state ~nt:lhs with
        | Some next -> run (next :: states) (value :: values) idx lookahead
        | None -> assert false)
    | Tables.Accept -> (
        match values with [ v ] -> Ok v | _ -> assert false)
    | Tables.Error ->
        (* Force the rest, so its producer's side effects all happen. *)
        (match lookahead with
        | Seq.Cons (_, rest) -> Seq.iter ignore rest
        | Seq.Nil -> ());
        Error { at = idx; state; expected = Tables.expected_terminals tables ~state }
  in
  run [ Tables.start_state tables ] [] 0 (input ())

let right_parse tables input =
  let out = ref [] in
  match
    parse tables
      ~shift:(fun _ _ -> ())
      ~reduce:(fun prod _ -> out := prod :: !out)
      input
  with
  | Ok () -> Ok (List.rev !out)
  | Error e -> Error e

let accepts tables terminals =
  let input = Seq.map (fun t -> (t, ())) (List.to_seq terminals) in
  match right_parse tables input with
  | Ok _ -> true
  | Error _ -> false

let diagnose tables input =
  let g = Tables.grammar tables in
  let errors = ref [] in
  (* Fuel bounds the whole walk: popping into an epsilon reduction can
     otherwise cycle without consuming input. *)
  let fuel = ref ((List.length input * 8) + 256) in
  (* Semantic values are irrelevant here; only states matter. *)
  let rec run states idx input =
    decr fuel;
    if !fuel <= 0 then ()
    else run_step states idx input

  and run_step states idx input =
    let state = match states with s :: _ -> s | [] -> assert false in
    let terminal = match input with (t, _) :: _ -> t | [] -> Cfg.eof in
    match Tables.action tables ~state ~terminal with
    | Tables.Shift next -> run (next :: states) (idx + 1) (List.tl input)
    | Tables.Reduce prod -> (
        let rhs_len = Array.length g.productions.(prod).rhs in
        let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
        let states = drop rhs_len states in
        let state = match states with s :: _ -> s | [] -> assert false in
        match Tables.goto_nt tables ~state ~nt:g.productions.(prod).lhs with
        | Some next -> run (next :: states) idx input
        | None -> assert false)
    | Tables.Accept -> ()
    | Tables.Error ->
        errors :=
          { at = idx; state; expected = Tables.expected_terminals tables ~state }
          :: !errors;
        recover states idx input
  (* Panic mode: find a suffix of the state stack that can act on the
     current token; otherwise discard the token. Each error consumes at
     least one token or ends the parse, so recovery terminates. *)
  and recover states idx input =
    let terminal = match input with (t, _) :: _ -> t | [] -> Cfg.eof in
    let rec poppable = function
      | [] -> None
      | (s :: _) as states ->
          if Tables.action tables ~state:s ~terminal <> Tables.Error then
            Some states
          else poppable (List.tl states)
    in
    match poppable states with
    | Some states' when List.length states' < List.length states ->
        run states' idx input
    | Some _ | None -> (
        match input with
        | _ :: rest -> run states (idx + 1) rest
        | [] -> () (* end of input: stop *))
  in
  run [ Tables.start_state tables ] 0 input;
  List.rev !errors
