(** Deterministic fault injection (the ["faulty"] registry entry).

    {!layer} wraps a backing-file store and damages the medium at writer
    close according to [config.faults]: torn writes truncate the file,
    bit flips corrupt single bits. Read-side kinds (transient EIO, short
    reads) are injected inside {!Store_pager} — below the checksum
    layer — where the bounded retry policy absorbs them.

    With [config.faults = None] the layer is the base store renamed.
    The registry layers it over ["paged"]. *)

val parse_spec : string -> (Apt_store.fault_spec, string) result
(** Parse ["SEED:RATE:KINDS"] (kinds: comma list of
    [transient|short|flip|torn], or [all]) — the [--apt-faults] syntax. *)

val spec_to_string : Apt_store.fault_spec -> string

val layer : Apt_store.config -> Apt_store.t -> Apt_store.t
