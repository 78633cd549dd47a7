(** Evaluation plans: the executable form of a generated evaluator.

    One {!prod_plan} corresponds to one of the paper's {e production-
    procedures}: the ordered reads and writes of child APT records,
    recursive visits, semantic-function evaluations, and — under static
    subsumption — the save/set/restore traffic on global variables. The
    engine ({!Engine}) interprets plans; the code generator
    ({!Pascal_gen}) prints them; both therefore describe the same
    evaluator. *)

(** Where a value lives during a pass, relative to one production
    invocation. *)
type loc =
  | Lnode of Ir.occ * int
      (** slot in the in-memory node of an occurrence: the symbol's
          attributes in declaration order, then (for [Lhs]) the limb
          attributes of the node's production *)
  | Lglobal of int  (** statically allocated global variable *)
  | Lframe of int  (** per-invocation temporary (the [_QZP] temps) *)

type action =
  | Read_child of int  (** child index (production position, 0-based) *)
  | Visit_child of int  (** recursive production-procedure call *)
  | Write_child of int
  | Eval of { rule : int; operands : loc array; targets : loc array }
      (** evaluate the rule's one expression, [Ir.rules.(rule).r_rhs],
          reading its operand [i] at [operands.(i)], and write its values
          to [targets] in order *)
  | Save of { global : int; frame : int }  (** frame := global *)
  | Set_global of { global : int; from : loc }
  | Restore of { global : int; frame : int }  (** global := frame *)
  | Capture of { global : int; frame : int }
      (** frame := global, snapshotting a child's synthesized result *)

(** Within one plan, equal locations are one value, and so are the child
    actions of one position: a plan holds no copy of any rule's
    expression, only its operand and target locations. *)
type prod_plan = {
  pp_prod : int;
  pp_actions : action array;  (** in execution order *)
  pp_frame_size : int;
  pp_subsumed_rules : int list;  (** rules elided entirely (subsumed) *)
}

type pass_plan = {
  pl_pass : int;  (** 1-based *)
  pl_dir : Pass_assign.direction;
  pl_prods : prod_plan array;  (** indexed by production id *)
}

type records
(** The APT record layout, built once per plan by {!record_layout} and
    read through {!record_slots}. *)

type t = {
  ir : Ir.t;
  passes : Pass_assign.result;
  dead : Dead.t;
  alloc : Subsume.allocation;
  pass_plans : pass_plan array;  (** index [k-1] is pass [k] *)
  records : records;
}

val slot_in_node : Ir.t -> Ir.production -> Ir.aref -> int
(** In-memory slot of an attribute reference (see {!loc}). *)

val node_slots : Ir.t -> sym:int -> prod:int -> int
(** In-memory slot count of a node: symbol attributes plus, for interior
    nodes ([prod >= 0]), the limb attributes of its production. *)

val record_layout : Ir.t -> Dead.t -> n_passes:int -> records

val record_slots : t -> sym:int -> prod:int -> pass:int -> int array
(** The node slots (see {!loc}) a record written at the end of [pass]
    carries, in record order (pass 0 = the parser's linearization): the
    symbol's attributes that {!Dead.written} keeps, then its limb's. An
    interior record's layout depends on [prod] alone, a leaf's
    ([prod < 0]) on [sym]. Ascending; shared between nodes, so never
    mutate it. *)

val pp_action : Ir.t -> Ir.production -> Format.formatter -> action -> unit
(** One line per action; an [Eval] prints its rule's expression through
    {!Ir.pp_expr} with each operand shown at its location, so it reads
    like the rule it came from. *)
