type mode = Optimized | Keep_all

type t = {
  ir : Ir.t;
  mode : mode;
  def_pass : int array;
  last_use : int array;
}

let analyze ?(mode = Optimized) (ir : Ir.t) (pr : Pass_assign.result) =
  let nattrs = Array.length ir.attrs in
  let def_pass = Array.copy pr.Pass_assign.passes in
  let last_use = Array.make nattrs 0 in
  Array.iter
    (fun (r : Ir.rule) ->
      let rule_pass =
        Array.fold_left
          (fun acc t -> max acc pr.Pass_assign.passes.(t.Ir.attr))
          1 r.Ir.r_targets
      in
      Array.iter
        (fun d -> last_use.(d.Ir.attr) <- max last_use.(d.Ir.attr) rule_pass)
        r.Ir.r_deps)
    ir.rules;
  (* Root outputs survive the final pass. *)
  List.iter
    (fun a ->
      if a.Ir.a_kind = Ir.Synthesized then
        last_use.(a.Ir.a_id) <- pr.Pass_assign.n_passes + 1)
    (Ir.attrs_of_sym ir ir.root);
  { ir; mode; def_pass; last_use }

let last_use t a = t.last_use.(a)
let is_temporary t a = t.last_use.(a) <= t.def_pass.(a)

let written t ~pass a =
  match t.mode with
  | Optimized -> t.def_pass.(a) <= pass && pass < t.last_use.(a)
  | Keep_all -> t.def_pass.(a) <= pass

let temporary_count t =
  Array.fold_left
    (fun acc (a : Ir.attr) ->
      if a.a_kind <> Ir.Intrinsic && is_temporary t a.a_id then acc + 1 else acc)
    0 t.ir.attrs

let significant_count t =
  Array.fold_left
    (fun acc (a : Ir.attr) ->
      if a.a_kind <> Ir.Intrinsic && not (is_temporary t a.a_id) then acc + 1
      else acc)
    0 t.ir.attrs
