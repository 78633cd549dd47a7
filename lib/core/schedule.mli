(** Plan construction: compiles every (production, pass) pair into an
    ordered action list.

    Rules are placed at the earliest point of the production-procedure
    where their arguments exist (the paper's relaxed ordering). Under a
    static allocation the scheduler also lays down the global-variable
    protocol of §III:

    - a copy-rule into a same-global instance is {e subsumed} (emitted as
      nothing) when the global provably still holds the source instance's
      value at the relevant moment;
    - a non-copy definition of a statically allocated inherited attribute
      evaluates into a fresh temporary, then brackets the child's visit
      with save / set / restore, so "the old value is saved ... and after
      processing the sub-APT the saved value is restored";
    - references to the shadowed instance keep using the saved temporary,
      and "the newly-computed right-hand-side value may be used ...
      concurrently with references to the old value ... after the old
      value has been restored" — both paper complications are handled by
      location tracking;
    - a child's statically allocated synthesized result is captured into a
      temporary right after the visit whenever a later rule needs it, since
      a later sibling's subtree may overwrite the global. *)

exception Infeasible of string
(** Raised if a statically allocated attribute instance has no location
    when a rule reads it — this indicates a bug. *)

val build :
  Ir.t ->
  Pass_assign.result ->
  schedules:Pass_assign.schedules ->
  dead:Dead.t ->
  alloc:Subsume.allocation ->
  Plan.t
(** Lays out the rules of every (production, pass) in the order and at
    the time points {!Pass_assign.compute} scheduled them. *)
