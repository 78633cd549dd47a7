(** Attribute values and the list-processing package.

    LINGUIST-86 ships a "package that supports list-processing": the linked
    lists representing sets, sequences, and partial functions that semantic
    functions manipulate. Attribute types in the AG input are uninterpreted,
    so at evaluation time every attribute instance holds a dynamic value of
    this single type. Unknown identifiers become uninterpreted constants and
    unknown functions uninterpreted terms, exactly as the paper prescribes
    ("any identifier that is not a grammar symbol, attribute, or attribute
    type is treated as an uninterpreted constant or function").

    Values are immutable; sets and partial functions are kept in a canonical
    (sorted, duplicate-free) form so that structural equality coincides with
    semantic equality, and set and partial-function operations are linear
    merges of those forms.

    A sequence is either a flat [List] or a rope of [Cat] nodes, so that
    [Append], [MergeMsgs] and [Cons] onto a rope take O(1) time and share
    their operands: a left-recursive translation then builds its code list
    in linear rather than quadratic space. No function of this module
    reveals the representation: {!compare}, {!pp}, {!encode} and every library function
    treat a [Cat] exactly as the [List] of its items, and {!decode} yields
    flat lists only. *)

type t =
  | Bottom  (** the undefined/absent value; also the paper's [no$msg] etc. *)
  | Int of int
  | Bool of bool
  | Str of string
  | Name of Interner.name  (** name-table index (intrinsic attributes) *)
  | List of t list  (** a sequence; tuples are short sequences *)
  | Cat of t * t * int
      (** the concatenation of two non-empty sequences ([List] or [Cat])
          and its item count. Built by {!apply}; removed by {!normalize}. *)
  | Set of t list  (** invariant: sorted by {!compare}, no duplicates *)
  | Pf of (t * t) list  (** partial function; invariant: key-sorted *)
  | Term of string * t list
      (** uninterpreted function application; constants have no arguments *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val to_string : t -> string

val normalize : t -> t
(** The same value with every [Cat], at any depth, replaced by the flat
    [List] of its items. The in-memory evaluators ([Demand], [Incr]) call
    it on the values they hand out, and [Engine]'s outputs are decoded
    from its last APT file, so code outside this module that matches
    [List] never meets a rope. *)

(** {1 Sets} *)

val set_of_list : t list -> t
val set_add : t -> t -> t
val set_union : t -> t -> t
val set_mem : t -> t -> bool
val set_elements : t -> t list

(** {1 Partial functions} *)

val pf_bind : key:t -> data:t -> t -> t
(** Add or replace a binding. *)

val pf_eval : t -> t -> t
(** Look a key up; {!Bottom} when unbound (the paper's
    [EvalPF(...) <> bottom] test). *)

val pf_domain : t -> t
(** The set of bound keys. *)

(** {1 Truthiness and coercions} *)

val is_true : t -> bool
(** [Bool true] is true; everything else false. *)

val as_int : t -> int option
val as_list : t -> t list option

(** {1 Standard function library} *)

val normalize_name : string -> string
(** The name normalization used for library lookup: lowercase with ['$']
    and ['_'] removed. Exposed so embedders (e.g. instruction decoders)
    can match uninterpreted term heads the same way. *)

val lookup_function : string -> (t list -> t) option
(** Find an interpreted standard function by name. Lookup is insensitive to
    case and to ['$']/['_'] separators, so [union$setof], [UnionSetof] and
    [union_setof] all resolve to the same function. Includes: [union],
    [unionsetof], [isin], [intersect], [setminus], [sizeof], [cons], [cons2],
    [cons3], [append], [reverse], [lengthof], [head], [tail], [conspf],
    [evalpf], [domainof], [unionpf] (left-biased union of partial functions), [consmsg], [mergemsgs], [incrifzero], [incriftrue],
    [pow2], [mulpow2] (fixed-point scaling by powers of two),
    [max], [min], [abs], [pair], [first], [second], [nameof], [not]. *)

val lookup_constant : string -> t option
(** Interpreted named constants: [bottom], [nomsg], [nullname], [nullmsglist],
    [nulllist], [emptyset], [nullset], [nullpf] (same name normalization). *)

val apply : string -> t list -> t
(** Apply a function by name: the interpreted one when known, otherwise an
    uninterpreted {!Term}. *)

(** {1 Binary encoding}

    The on-disk format of attribute values inside APT records. Sizes are
    what the byte-accounting experiments (E4, F2) measure. *)

val encode : Buffer.t -> t -> unit

val decode : string -> int -> t * int
(** [decode s pos] reads one value, returning it and the position just
    after. @raise Failure on malformed input. *)

val encoded_size : t -> int
(** Number of bytes {!encode} would emit. *)
