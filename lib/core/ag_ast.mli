(** Abstract syntax of the LINGUIST attribute-grammar input language.

    The surface language follows the paper's §IV: symbol declarations with
    uninterpreted attribute types; terminal attributes are {e intrinsic}
    (set by the parser); {e limb} symbols name productions and their
    attributes name common sub-expressions; semantic functions may define a
    list of attribute-occurrences at once; right-hand sides are pure
    expressions over attribute occurrences with a value-producing
    [if/elsif/else/endif] and the standard infix operators. *)

(** A source position in one immediate: the start and end byte offsets
    of a construct, packed (offsets below 2{^31}). A diagnostic rebuilds
    its {!Lg_support.Loc.span} with {!span}. *)
type pos = int

val pos_start : pos -> int
val pos_stop : pos -> int

val pos_of_span : Lg_support.Loc.span -> pos
(** The start and end offsets of a scanner span. *)

val merge : pos -> pos -> pos
(** Smallest position covering both. *)

type binop = Add | Sub | Eq | Ne | Lt | Gt | Le | Ge | And | Or

type expr =
  | Enum of int * pos
  | Ebool of bool * pos
  | Estr of string * pos
  | Eident of string * pos
      (** bare identifier: limb attribute, named constant, or uninterpreted
          constant *)
  | Edot of string * string * pos
      (** [occurrence.ATTRIBUTE] *)
  | Ecall of string * expr list * pos
  | Ebinop of binop * expr * expr * pos
  | Enot of expr * pos
  | Eneg of expr * pos
  | Eif of branch list * expr list * pos
      (** branches tried in order; the [expr list]s carry one value per
          target being defined (multi-target semantic functions) *)

and branch = { cond : expr; values : expr list }

type target =
  | Tdot of string * string * pos
  | Tbare of string * pos  (** a limb attribute *)

type semfn = { targets : target list; rhs : expr; f_pos : pos }

type attr_kind = Kinh | Ksyn | Kintrinsic | Kplain

type attr_decl = {
  attr_name : string;
  attr_type : string;
  attr_kind : attr_kind;
  a_pos : pos;
}

type sym_section = Sterminals | Snonterminals | Slimbs

type sym_decl = {
  sym_name : string;
  sym_attrs : attr_decl list;
  s_pos : pos;
}

type prod_decl = {
  lhs : string;
  rhs : string list;
  limb : string option;
  sems : semfn list;
  p_pos : pos;
}

type strategy = Bottom_up | Recursive_descent

type section =
  | Sec_root of string * pos
  | Sec_strategy of strategy * pos
  | Sec_symbols of sym_section * sym_decl list
  | Sec_productions of prod_decl list

type spec = {
  name : string;
  sections : section list;
  file : string;  (** the file name every position belongs to *)
  line_starts : int array;
      (** byte offset of each line's first byte: [0], then one past each
          newline *)
  sp_pos : pos;  (** the [grammar] keyword *)
}

val line_starts : string -> int array
(** The {!spec.line_starts} of an input. *)

val line : line_starts:int array -> int -> int
(** The 1-based line of a byte offset: the last line start at or before
    it. *)

val col : line_starts:int array -> int -> int
(** The 1-based column of a byte offset: the bytes from its line's
    start, plus 1, which is what the scanner counts. *)

val span : file:string -> line_starts:int array -> pos -> Lg_support.Loc.span
(** The span the scanner gave the bytes of a position: {!line} and
    {!col} of its start and end. *)

val expr_pos : expr -> pos
val target_pos : target -> pos

val strip_occurrence_suffix : string -> string * int option
(** ["expr1"] is occurrence 1 of symbol ["expr"]: split a trailing decimal
    suffix off an identifier. [None] when there is no suffix. *)

val pp_expr : Format.formatter -> expr -> unit
(** Re-parsable rendering, used by the listing generator to print implicit
    copy-rules exactly like explicit ones. *)

val pp_semfn : Format.formatter -> semfn -> unit
