(* The one meaning of a semantic expression: the operators and the rule
   evaluator shared by the alternating-pass engine (compiled and
   interpretive), the demand-driven oracle and incremental propagation, so
   differential tests compare evaluation order and instance storage, never
   expression meaning. A rule's expression reads operand [i] as
   [operands.(i)]; each caller supplies its own operand array (locations,
   references or cells) and the reader for it. Arithmetic and ordering
   apply to integers; anything else becomes an uninterpreted term,
   matching the paper's treatment of unknown operations. *)

open Lg_support

let truthy = Value.is_true

let binop op a b =
  match (op, a, b) with
  | Ag_ast.Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Ag_ast.Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Ag_ast.Eq, _, _ -> Value.Bool (Value.equal a b)
  | Ag_ast.Ne, _, _ -> Value.Bool (not (Value.equal a b))
  | Ag_ast.Lt, Value.Int x, Value.Int y -> Value.Bool (x < y)
  | Ag_ast.Gt, Value.Int x, Value.Int y -> Value.Bool (x > y)
  | Ag_ast.Le, Value.Int x, Value.Int y -> Value.Bool (x <= y)
  | Ag_ast.Ge, Value.Int x, Value.Int y -> Value.Bool (x >= y)
  | Ag_ast.And, _, _ -> Value.Bool (truthy a && truthy b)
  | Ag_ast.Or, _, _ -> Value.Bool (truthy a || truthy b)
  | Ag_ast.Add, _, _ -> Value.Term ("+", [ a; b ])
  | Ag_ast.Sub, _, _ -> Value.Term ("-", [ a; b ])
  | Ag_ast.Lt, _, _ -> Value.Term ("<", [ a; b ])
  | Ag_ast.Gt, _, _ -> Value.Term (">", [ a; b ])
  | Ag_ast.Le, _, _ -> Value.Term ("<=", [ a; b ])
  | Ag_ast.Ge, _, _ -> Value.Term (">=", [ a; b ])

let not_ a = Value.Bool (not (truthy a))

let neg = function
  | Value.Int n -> Value.Int (-n)
  | v -> Value.Term ("-", [ v ])

let rec eval_scalar read operands = function
  | Ir.Cconst v -> v
  | Ir.Cref i -> read operands.(i)
  | Ir.Ccall (f, args) -> Value.apply f (eval_args read operands args)
  | Ir.Cbinop (op, a, b) ->
      binop op (eval_scalar read operands a) (eval_scalar read operands b)
  | Ir.Cnot a -> not_ (eval_scalar read operands a)
  | Ir.Cneg a -> neg (eval_scalar read operands a)
  | Ir.Cif _ -> invalid_arg "Sem_ops: conditional in scalar position"

(* A call's arguments, left to right. *)
and eval_args read operands = function
  | [] -> []
  | a :: rest ->
      let v = eval_scalar read operands a in
      v :: eval_args read operands rest

let rec eval_multi read operands = function
  | Ir.Cif (branches, else_) ->
      let rec pick = function
        | [] -> List.concat_map (eval_multi read operands) else_
        | (cond, values) :: rest ->
            if truthy (eval_scalar read operands cond) then
              List.concat_map (eval_multi read operands) values
            else pick rest
      in
      pick branches
  | e -> [ eval_scalar read operands e ]

(* The values a rule assigns to its [n_targets] targets, in target order:
   a single value is broadcast to every target. *)
let eval_rule read operands e ~n_targets =
  match eval_multi read operands e with
  | [ v ] when n_targets > 1 -> List.init n_targets (fun _ -> v)
  | vs ->
      if List.length vs <> n_targets then
        invalid_arg
          (Printf.sprintf "Sem_ops: %d values for %d targets (checker bug)"
             (List.length vs) n_targets);
      vs

let rec assign_from write targets i = function
  | [] -> ()
  | v :: rest ->
      write targets.(i) v;
      assign_from write targets (i + 1) rest

(* Write a rule's values to its targets, in order. *)
let assign write targets values = assign_from write targets 0 values
