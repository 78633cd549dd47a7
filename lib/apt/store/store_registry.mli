(** The APT store registry: name -> configured store.

    Builtins, each kept for a measured win or a tested guarantee:
    ["mem"] (in-memory, the default and fastest), ["paged"] (a temp file
    through an LRU page pool with read-ahead: the bounded-memory store),
    and ["zip"] (front-coded block compression over paged: fewest
    bytes). Fault injection ([config.faults]) is not a store: ["paged"],
    and so ["zip"] over it, applies it whenever a spec is set.
    [register] plugs in out-of-tree stores, any {!Apt_store.t}. *)

val register :
  name:string ->
  description:string ->
  (Apt_store.config -> Apt_store.t) ->
  unit
(** Replaces any existing entry of the same name. *)

val names : unit -> string list
(** Sorted registered names. *)

val description : string -> string option

val find : ?config:Apt_store.config -> string -> Apt_store.t
(** @raise Failure on an unknown name, listing the registered ones. *)
