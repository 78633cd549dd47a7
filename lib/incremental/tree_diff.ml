open Lg_apt

type stats = {
  prev_nodes : int;
  next_nodes : int;
  reused_nodes : int;
  fresh_nodes : int;
  churn : float;
}

let merge fp ~prev ~next =
  let seeds = ref [] in
  let discarded = ref [] in
  let reused = ref 0 in
  let fresh = ref 0 in
  (* Adopt an incoming subtree wholly: every node is fresh, every
     interior node a propagation seed. *)
  let rec adopt (n : Tree.t) =
    incr fresh;
    if n.Tree.prod <> Node.leaf_prod then seeds := n :: !seeds;
    List.iter adopt n.Tree.children
  in
  (* The cached subtree it overwrites leaves the merged tree entirely. *)
  let rec discard (p : Tree.t) =
    discarded := p :: !discarded;
    List.iter discard p.Tree.children
  in
  let rec go (p : Tree.t) (n : Tree.t) =
    if Fingerprint.cons fp p = Fingerprint.cons fp n then begin
      reused := !reused + Fingerprint.size fp p;
      p
    end
    else if p.Tree.prod <> Node.leaf_prod && p.Tree.prod = n.Tree.prod then begin
      (* Same production instance (hence same arity): the edit is in
         some child; merge positionally and rebuild this spine node. *)
      let children = List.map2 go p.Tree.children n.Tree.children in
      let m = Tree.interior ~prod:n.Tree.prod ~sym:n.Tree.sym ~children in
      incr fresh;
      seeds := m :: !seeds;
      discarded := p :: !discarded;
      m
    end
    else begin
      adopt n;
      discard p;
      n
    end
  in
  let merged = go prev next in
  let total = !reused + !fresh in
  let stats =
    {
      prev_nodes = Fingerprint.size fp prev;
      next_nodes = Fingerprint.size fp next;
      reused_nodes = !reused;
      fresh_nodes = !fresh;
      churn = float_of_int !fresh /. float_of_int (max 1 total);
    }
  in
  (merged, !seeds, !discarded, stats)
