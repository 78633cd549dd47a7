(** Checked intermediate representation of an attribute grammar.

    Produced by {!Check} from the surface AST; everything downstream — pass
    assignment, scheduling, evaluation, static subsumption, code generation,
    statistics — works on this form. Symbols, attributes, productions and
    rules are dense arrays; attribute occurrences are (production,
    occurrence, attribute) triples.

    Of the source positions, the IR keeps only what a diagnostic after
    {!Check} needs: each rule's start position and end offset, and the
    file name once. Symbols, attributes and productions keep none —
    {!Check} reports against the AST's spans, and nothing downstream
    reports against theirs. *)

type attr_kind = Inherited | Synthesized | Intrinsic | Limb_attr

type attr = {
  a_id : int;
  a_sym : int;  (** owning symbol *)
  a_name : string;
  a_type : string;  (** uninterpreted type identifier *)
  a_kind : attr_kind;
}

type sym_kind = Terminal | Nonterminal | Limb

type symbol = {
  s_id : int;
  s_name : string;
  s_kind : sym_kind;
  s_attrs : int list;  (** attribute ids, declaration order *)
}

(** An occurrence within a production: the left-hand side, a right-hand
    side position (0-based), or the production's limb. *)
type occ = Lhs | Rhs of int | Limb_occ

type aref = { occ : occ; attr : int }
(** A reference to one attribute instance, production-relative. *)

(** Semantic expression over a leaf type: constants folded to values,
    interpreted/uninterpreted function split deferred to evaluation. The
    one expression type of the system. {!Check} builds it over [aref]
    leaves and stores it in each rule over operand indices ({!operands});
    {!Sem_ops.eval_rule} evaluates it given an operand array and a
    reader for it. *)
type 'leaf expr =
  | Cconst of Lg_support.Value.t
  | Cref of 'leaf
  | Ccall of string * 'leaf expr list
  | Cbinop of Ag_ast.binop * 'leaf expr * 'leaf expr
  | Cnot of 'leaf expr
  | Cneg of 'leaf expr
  | Cif of ('leaf expr * 'leaf expr list) list * 'leaf expr list
      (** branches of (condition, values), then the else values; only at
          the top of a right-hand side or of a branch value list *)

(** A semantic rule. Its right-hand side is the rule's one expression: a
    leaf [Cref i] reads operand [i], the reference [r_deps.(i)]. Every
    consumer resolves the operands its own way — a plan's [Eval] holds
    one location per operand, the incremental index one cell per
    operand, the interpretive engine and the demand-driven oracle read
    [r_deps] directly — and evaluates this same expression. Within one
    IR, equal [aref]s (and their [Rhs i] occurrences) are one value. *)
type rule = {
  r_id : int;
  r_prod : int;
  r_targets : aref array;
  r_rhs : int expr;  (** leaves index [r_deps] *)
  r_deps : aref array;
      (** the free references, deduplicated, in first-use order *)
  r_implicit : bool;  (** inserted implicit copy-rule *)
  r_line : int;  (** where the rule starts: line, column, byte offset *)
  r_col : int;
  r_start : int;
  r_stop : int;  (** byte offset where the rule ends *)
}

type production = {
  p_id : int;
  p_lhs : int;  (** symbol id (nonterminal) *)
  p_rhs : int array;  (** symbol ids (terminals / nonterminals) *)
  p_limb : int option;  (** limb symbol id *)
  p_rules : int list;  (** rule ids, source order, implicit rules last *)
  p_tag : string;
}

type t = {
  grammar_name : string;
  source_file : string;  (** the file the rules' positions refer to *)
  symbols : symbol array;
  attrs : attr array;
  prods : production array;
  rules : rule array;
  root : int;  (** symbol id *)
  strategy : Ag_ast.strategy;
  source_lines : int;  (** lines in the AG source text (statistics) *)
}

val attrs_of_sym : t -> int -> attr list
val find_attr : t -> sym:int -> name:string -> attr option

val slot_of_attr : t -> int -> int
(** Position of an attribute within its symbol's attribute list — the
    in-memory node layout used by the evaluator. *)

val rule_span : t -> rule -> Lg_support.Loc.span
(** The rule's source span, for diagnostics: its start position and end
    offset, which are all that {!Lg_support.Diag} prints and sorts by. The
    end position's line and column are the start's. *)

val copy_ends : rule -> (aref * aref) option
(** [Some (target, source)] for a copy-rule: a single target whose
    right-hand side is a bare attribute reference. *)

val rule_defines : rule -> aref -> bool

val arity : 'leaf expr -> int option
(** Number of values an expression produces; [None] if the branch lists of
    some conditional disagree (ill-formed, rejected by {!Check}). *)

val operands : aref expr -> int expr * aref array
(** The operand form of a right-hand side: the deduplicated free
    references in first-use order, and the expression whose leaves index
    them. Constants are kept as they are, and the leaves of small indices
    are shared. *)

(** {1 Statistics — experiment E1} *)

type stats = {
  lines : int;
  n_symbols : int;
  n_attrs : int;
  n_prods : int;
  n_occurrences : int;  (** attribute-occurrences over all productions *)
  n_rules : int;
  n_copy_rules : int;
  n_implicit_copy_rules : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val to_cfg : t -> Lg_grammar.Cfg.t
(** The underlying context-free grammar, as handed to the LALR parse-table
    builder — the paper's "exactly the same input file to both" discipline. *)

val occ_name : t -> production -> occ -> string
(** [SYM$lhs], [SYM$i] (1-based) or the limb's name. *)

val pp_aref : t -> production -> Format.formatter -> aref -> unit

val pp_expr :
  (Format.formatter -> 'leaf -> unit) -> Format.formatter -> 'leaf expr -> unit
(** The one expression printer, given a leaf printer. *)

val pp_rule : t -> Format.formatter -> rule -> unit
