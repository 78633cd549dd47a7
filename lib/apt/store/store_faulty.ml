(* Deterministic fault injection for the resilience test matrix.

   [layer] wraps any backing-file store and, at writer close, damages
   the medium the way real storage fails: torn writes truncate the file
   mid-stream, bit flips corrupt single bits in place. Read-side faults
   (transient EIO, short reads) are injected lower, inside
   [Store_pager.transfer], where the retry policy can absorb them — a
   bit flip injected above the checksum layer would be invisible to it,
   which is exactly the false confidence this module exists to avoid.

   Everything is driven by [Apt_store.fault_spec] (--apt-faults
   seed:rate:kinds): one RNG seeded with [f_seed] rolls once per written
   record, so a campaign is reproducible byte-for-byte. *)

open Apt_store

let kinds =
  [
    ("transient", Transient_io);
    ("short", Short_read);
    ("flip", Bit_flip);
    ("torn", Torn_write);
  ]

let kind_to_string = Lg_support.Kind_spec.name kinds

(* "seed:rate:kinds" with kinds a comma list of transient|short|flip|torn
   or "all", e.g. "42:0.01:transient,flip". *)
let parse_spec s =
  Lg_support.Kind_spec.parse ~noun:"fault" ~example:"42:0.01:transient,flip"
    ~kinds s
  |> Result.map (fun (f_seed, f_rate, f_kinds) -> { f_seed; f_rate; f_kinds })

let spec_to_string { f_seed; f_rate; f_kinds } =
  Printf.sprintf "%d:%g:%s" f_seed f_rate
    (String.concat "," (List.map kind_to_string f_kinds))

(* ---- write-side medium damage ---- *)

type action = Flip of int (* record index *) | Tear of int

let write_kinds spec =
  List.filter (function Bit_flip | Torn_write -> true | _ -> false) spec.f_kinds

(* One roll per written record: each record is an opportunity for the
   medium to fail underneath it. *)
let plan_damage spec rng ~records =
  let kinds = write_kinds spec in
  let actions = ref [] in
  for i = 0 to records - 1 do
    if Random.State.float rng 1.0 < spec.f_rate then
      match List.nth kinds (Random.State.int rng (List.length kinds)) with
      | Bit_flip -> actions := Flip i :: !actions
      | Torn_write -> actions := Tear i :: !actions
      | _ -> ()
  done;
  List.rev !actions

(* Damage the closed backing file in place. Flips touch one random bit
   past the signature; tears cut the file at a random offset past the
   signature. Returns the file's new size. *)
let apply_damage rng path actions =
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  let data = Bytes.of_string (really_input_string ic size) in
  close_in ic;
  let floor = min Framed.data_start size in
  let cut = ref size in
  List.iter
    (fun a ->
      match a with
      | Tear _ ->
          if size > floor + 1 then
            cut := min !cut (floor + 1 + Random.State.int rng (size - floor - 1))
      | Flip _ ->
          if size > floor then begin
            let off = floor + Random.State.int rng (size - floor) in
            let bit = Random.State.int rng 8 in
            Bytes.set data off
              (Char.chr (Char.code (Bytes.get data off) lxor (1 lsl bit)))
          end)
    actions;
  let oc = open_out_bin path in
  output_bytes oc (Bytes.sub data 0 !cut);
  close_out oc;
  !cut

let layer (config : config) (base : t) : t =
  match config.faults with
  | None -> { base with s_name = "faulty" }
  | Some spec ->
      {
        s_name = "faulty";
        start =
          (fun stats ->
            let w = base.start stats in
            let records = ref 0 in
            {
              put =
                (fun payload ->
                  incr records;
                  w.put payload);
              close =
                (fun () ->
                  let f = w.close () in
                  let f = { f with f_store = "faulty" } in
                  match (f.f_path, write_kinds spec) with
                  | Some path, _ :: _ ->
                      let rng = Random.State.make [| spec.f_seed |] in
                      let actions = plan_damage spec rng ~records:!records in
                      if actions = [] then f
                      else
                        let size = apply_damage rng path actions in
                        (* readers will see the damage; size reflects any
                           tear so record accounting stays honest *)
                        { f with f_size = min f.f_size size }
                  | _ -> f);
            });
      }
