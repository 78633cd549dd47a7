let parse ~noun ~example ~kinds s =
  match String.split_on_char ':' s with
  | [ seed; rate; names ] -> (
      match (int_of_string_opt seed, float_of_string_opt rate) with
      | Some seed, Some rate when rate >= 0.0 && rate <= 1.0 -> (
          let parts =
            List.filter
              (fun p -> p <> "")
              (String.split_on_char ',' (String.lowercase_ascii names))
          in
          if parts = [] then Error (Printf.sprintf "no %s kinds given" noun)
          else if List.mem "all" parts then Ok (seed, rate, List.map snd kinds)
          else
            let rec go acc = function
              | [] -> Ok (seed, rate, List.rev acc)
              | p :: rest -> (
                  match List.assoc_opt p kinds with
                  | Some k -> go (k :: acc) rest
                  | None ->
                      Error
                        (Printf.sprintf "unknown %s kind %S (expected %s|all)"
                           noun p
                           (String.concat "|" (List.map fst kinds))))
            in
            go [] parts)
      | _ -> Error "expected SEED:RATE:KINDS with integer seed and rate in [0,1]")
  | _ -> Error ("expected SEED:RATE:KINDS, e.g. " ^ example)

let name kinds k = fst (List.find (fun (_, k') -> k' = k) kinds)

let render ~kinds (seed, rate, ks) =
  Printf.sprintf "%d:%s:%s" seed (Json_out.number rate)
    (String.concat "," (List.map (name kinds) ks))
