(** The [SEED:RATE:KINDS] syntax shared by the deterministic injection
    specs: the APT store's [--apt-faults]
    ({!Lg_apt.Apt_store.parse_spec}) and the server's [--chaos]
    ({!Lg_server.Chaos}). [SEED] is an integer, [RATE] a float in
    [[0,1]], [KINDS] a comma list of kind names (case folded, empty
    items ignored) or [all]. *)

val parse :
  noun:string ->
  example:string ->
  kinds:(string * 'k) list ->
  string ->
  (int * float * 'k list, string) result
(** Parse a spec against the [(name, kind)] table; [all] selects every
    kind in table order. [noun] names the kinds in errors (["unknown
    chaos kind \"x\" (expected delay|...|all)"]), and [example] is the
    well-formed spec a malformed one is pointed at. *)

val name : (string * 'k) list -> 'k -> string
(** The table's name for a kind. *)

val render : kinds:(string * 'k) list -> int * float * 'k list -> string
(** The spec string {!parse} reads back: the rate printed as
    {!Json_out.number} (shortest round-tripping decimal), the kinds by
    their table names. *)
