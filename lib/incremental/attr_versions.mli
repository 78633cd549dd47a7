(** The versioned attribute store.

    One row per interior node of the live tree, keyed by the node's id:
    the node's parent link and its attribute instances, one cell each,
    in a fixed order per production ({!Propagate.widths}: the
    non-intrinsic attributes of the left-hand side, then of the limb).
    A cell holds the instance's current value, or is absent (not
    computed yet), or carries the in-progress marker while a demand
    computes it.
    A row survives from one update to the next for as long as its node
    stays in the merged tree; {!Propagate} trusts its values until a
    changed input reaches them through the dependency edges. The {!Incr}
    façade removes the rows of the nodes an update discards, so the
    store holds exactly the live tree's nodes.

    Intrinsic attributes are never stored: they live in the leaf nodes
    themselves and travel with the tree through the merge, so a leaf
    has no row. *)

type t

type row
(** One interior node's record. *)

val create : widths:int array -> t
(** An empty store whose rows have [widths.(p)] cells for a node of
    production [p]. *)

val add_tree : t -> Lg_apt.Tree.t -> unit
(** Add a row for every interior node of the tree, each linked to its
    parent, every cell absent. *)

val add_seeds : t -> Lg_apt.Tree.t list -> unit
(** Add a row for each of an update's fresh interior nodes, every cell
    absent, and link each child of theirs to them. The rows of reused
    children must exist already. *)

val remove : t -> Lg_apt.Tree.t -> unit
(** Drop a node's row (a leaf has none). *)

val find : t -> Lg_apt.Tree.t -> row
(** The row of an interior node of the live tree; [Invalid_argument]
    for any other node. *)

val parent : row -> Lg_apt.Tree.t
(** The parent node; meaningless at the root (see {!pos}). *)

val pos : row -> int
(** The node's child position under {!parent}; -1 at the root. *)

val fresh : t -> row -> bool
(** Whether the row was added since the last {!settle}: its cells were
    all absent when the current propagation began. *)

val settle : t -> unit
(** Mark every row as no longer fresh; {!Propagate.run} calls it once
    its waves have drained. *)

(** A cell's state. *)
type status = Absent | Computing | Set

val status : row -> int -> status

val get : row -> int -> Lg_support.Value.t
(** The value of a [Set] cell. *)

val mark : row -> int -> unit
(** Put the in-progress marker in an absent cell. *)

val unmark : row -> int -> unit
(** Take the in-progress marker out again, leaving the cell absent; a
    cell that holds a value is left alone. *)

(** What {!record} did to the cell. [Created] means no previous value
    existed (a fresh instance); [Changed] means a previous value was
    overwritten with a different one — the only case that must
    propagate to consumers. *)
type write = Created | Changed | Unchanged

val record : row -> int -> Lg_support.Value.t -> write

val rows : t -> int
(** Number of rows: the live tree's interior nodes. *)

val cardinal : t -> int
(** Number of cells that hold a value. *)

val markers : t -> int
(** Number of cells carrying the in-progress marker: zero whenever no
    demand is running, also after a propagation raised. *)
