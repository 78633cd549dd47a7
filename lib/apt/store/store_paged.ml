(* The paged file store, the one file-backed medium: a framed record
   stream in a temp file. The writer appends straight to the file; each
   reader holds one window over it, the byte range [wlo, wlo + len)
   that it last fetched. The alternating-pass evaluator reads a file
   only front to back or back to front (paper §1), so a window that
   slides in the scan direction is all the buffering a reader needs.

   Cost model: one physical transfer moves one contiguous byte range
   and costs a seek only when it does not start where the previous one
   left the head. A request inside the window is a substring. Any other
   request makes one transfer that extends the window in the scan
   direction (the codec's [want]) and drops the bytes behind it:

   - until the reader returns its first record, a fetch stops where the
     request does, so a partial scan (the engine's final read of the
     root record) is charged for that record's bytes only, as the mem
     store charges it;
   - from then on every fetch reads on to the page edge and
     [read_ahead] whole pages beyond it, so a backward scan costs one
     seek per three pages or fewer.

   The window never re-reads a byte it held, so a full scan moves
   exactly the file's size, whatever the page size.

   Every transfer runs under a bounded retry-with-backoff loop: a
   transient fault (injected EIO or short read, [Apt_error.Transient])
   is retried up to [max_attempts] times with the head position
   invalidated, so the next attempt re-seeks; each repeat is tallied
   into [Io_stats.retries]. When the budget runs out the pages covering
   the failing range are quarantined, so that further reads of them
   fail at once, and the caller sees a typed [Exhausted_retries].

   This is also the one fault path ([config.faults], --apt-faults
   seed:rate:kinds). Read-side kinds roll once per physical transfer,
   where the retry policy can absorb them. Write-side kinds damage the
   medium at writer close the way real storage fails: torn writes
   truncate the file mid-stream, bit flips corrupt single bits in place
   — below the checksum layer, so the damage is always there for the
   readers to detect. One RNG seeded with [f_seed] rolls once per
   written record, so a campaign is reproducible byte for byte. *)

open Apt_store

(* ---- reading: one window per reader ---- *)

let max_attempts = 4
let read_ahead = 2

type reader_state = {
  ic : in_channel;
  path : string;
  size : int;
  page_size : int;  (** at most [size], so page arithmetic cannot overflow *)
  stats : Io_stats.t option;
  quarantined : (int, unit) Hashtbl.t;
  faults : (fault_spec * Random.State.t) option;
  mutable phys : int;  (** where the medium's head sits; -1 = unknown *)
  mutable wlo : int;  (** file offset of [win]'s first byte *)
  mutable win : string;
  mutable ahead : int;
      (** whole pages read past a request's page: 0 until the reader
          has returned its first record, [read_ahead] from then on *)
}

let read_kinds spec =
  List.filter (function Transient_io | Short_read -> true | _ -> false) spec.f_kinds

let tally f r = match r.stats with Some s -> f s | None -> ()
let pages_of r ~start ~stop = (start / r.page_size, (stop - 1) / r.page_size)

(* Roll the fault dice before a physical read. *)
let maybe_inject r ~len =
  match r.faults with
  | None -> ()
  | Some (spec, rng) ->
      if Random.State.float rng 1.0 < spec.f_rate then begin
        let kinds = read_kinds spec in
        match List.nth kinds (Random.State.int rng (List.length kinds)) with
        | Transient_io -> Apt_error.transient "injected EIO"
        | Short_read ->
            (* the device really moved some bytes before giving up *)
            let got = if len <= 1 then 0 else Random.State.int rng len in
            (try ignore (really_input_string r.ic got) with End_of_file -> ());
            Apt_error.transient
              (Printf.sprintf "injected short read (%d of %d bytes)" got len)
        | _ -> ()
      end

let quarantine_range r ~start ~stop =
  let first, last = pages_of r ~start ~stop in
  for n = first to last do
    if not (Hashtbl.mem r.quarantined n) then begin
      Hashtbl.replace r.quarantined n ();
      tally (fun s -> Io_stats.bump s.Io_stats.pages_quarantined 1) r
    end
  done

let check_quarantine r ~start ~stop =
  let first, last = pages_of r ~start ~stop in
  for n = first to last do
    if Hashtbl.mem r.quarantined n then
      Apt_error.raise_
        (Apt_error.Exhausted_retries
           {
             path = Some r.path;
             attempts = max_attempts;
             detail = Printf.sprintf "page %d is quarantined" n;
           })
  done

(* One physical transfer of the non-empty byte range [start, stop),
   under the bounded retry policy. *)
let transfer r ~start ~stop =
  check_quarantine r ~start ~stop;
  let len = stop - start in
  let attempt () =
    maybe_inject r ~len;
    if start <> r.phys then begin
      tally (fun s -> Io_stats.bump s.Io_stats.seeks 1) r;
      seek_in r.ic start
    end;
    let run =
      try really_input_string r.ic len
      with End_of_file ->
        Apt_error.raise_
          (Apt_error.Truncated_file
             {
               path = Some r.path;
               offset = start;
               detail = "page read past end of file";
             })
    in
    r.phys <- stop;
    tally (fun s -> Io_stats.bump s.Io_stats.bytes_read len) r;
    run
  in
  let backoff n =
    (* a spin proportional to the attempt number stands in for the
       device settling; nothing here can block the single-threaded
       evaluator *)
    for _ = 1 to n * 50 do ignore (Sys.opaque_identity n) done
  in
  let rec go n =
    try attempt ()
    with Apt_error.Transient msg ->
      (* the head position is unknown after a failed read *)
      r.phys <- -1;
      if n >= max_attempts then begin
        quarantine_range r ~start ~stop;
        Apt_error.raise_
          (Apt_error.Exhausted_retries
             { path = Some r.path; attempts = n; detail = msg })
      end
      else begin
        tally (fun s -> Io_stats.bump s.Io_stats.retries 1) r;
        backoff n;
        go (n + 1)
      end
  in
  let m = Lg_support.Metrics.ambient () in
  if not (Lg_support.Metrics.enabled m) then go 1
  else begin
    (* how long a transfer that hit transient faults took to recover —
       the retry-latency distribution of the resilience layer *)
    let retries_before =
      match r.stats with Some s -> Io_stats.get s.Io_stats.retries | None -> 0
    in
    let t0 = Unix.gettimeofday () in
    let run = go 1 in
    (match r.stats with
    | Some s when Io_stats.get s.Io_stats.retries > retries_before ->
        Lg_support.Metrics.observe m
          ~buckets:[ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0 ]
          "apt.retry_recovery_seconds"
          (Unix.gettimeofday () -. t0)
    | _ -> ());
    run
  end

(* Fetch [start, stop) and count the pages it touches, less the page
   the window already holds part of when the fetch continues it from
   mid-page. *)
let fetch r ~start ~stop ~shared =
  let run = transfer r ~start ~stop in
  let first, last = pages_of r ~start ~stop in
  tally
    (fun s ->
      Io_stats.bump s.Io_stats.pages_read
        (last - first + 1 - if shared then 1 else 0))
    r;
  run

let read r ~pos ~len ~want =
  if pos < 0 || len < 0 || pos + len > r.size then
    Apt_error.raise_
      (Apt_error.Truncated_file
         { path = Some r.path; offset = pos; detail = "read past end of file" });
  let stop = pos + len and whi = r.wlo + String.length r.win in
  if len = 0 then ""
  else if r.wlo <= pos && stop <= whi then String.sub r.win (pos - r.wlo) len
  else begin
    let ps = r.page_size in
    match want with
    | `High ->
        let cont = r.wlo <= pos && pos <= whi in
        let start = if cont then whi else pos in
        let far =
          if r.ahead = 0 then stop
          else min r.size (((stop + ps - 1) / ps + r.ahead) * ps)
        in
        let run = fetch r ~start ~stop:far ~shared:(cont && start mod ps <> 0) in
        let keep = if cont then String.sub r.win (pos - r.wlo) (whi - pos) else "" in
        r.win <- keep ^ run;
        r.wlo <- pos;
        String.sub r.win 0 len
    | `Low ->
        let cont = r.wlo <= stop && stop <= whi in
        let top = if cont then r.wlo else stop in
        let near =
          if r.ahead = 0 then pos
          else max Framed.data_start ((pos / ps - r.ahead) * ps)
        in
        let run = fetch r ~start:near ~stop:top ~shared:(cont && top mod ps <> 0) in
        let keep = if cont then String.sub r.win 0 (stop - r.wlo) else "" in
        r.win <- run ^ keep;
        r.wlo <- near;
        String.sub r.win (pos - near) len
  end

let open_reader (config : config) path size stats dir =
  let faults =
    match config.faults with
    | Some spec when read_kinds spec <> [] ->
        Some (spec, Random.State.make [| spec.f_seed |])
    | _ -> None
  in
  let r =
    {
      ic = open_in_bin path;
      path;
      size;
      page_size = max 1 (min config.page_size size);
      stats;
      quarantined = Hashtbl.create 4;
      faults;
      phys = 0;
      wlo = 0;
      win = "";
      ahead = 0;
    }
  in
  (* the reader's first transfer is the signature, charged like the mem
     store's and leaving the head at the first record; a reader that
     fails to open closes its channel *)
  (try
     let n = min size Framed.data_start in
     Record_codec.sniff ~path:(Some path)
       (if n = 0 then "" else transfer r ~start:0 ~stop:n)
   with e ->
     close_in_noerr r.ic;
     raise e);
  let walk =
    Record_codec.walk
      { Record_codec.src_path = Some path; src_size = size; src_read = read r }
      dir
  in
  {
    next =
      (fun () ->
        let payload = walk () in
        if Option.is_some payload then r.ahead <- read_ahead;
        payload);
    close_reader = (fun () -> close_in r.ic);
  }

(* ---- write-side medium damage ---- *)

type action = Flip | Tear

let write_kinds spec =
  List.filter (function Bit_flip | Torn_write -> true | _ -> false) spec.f_kinds

(* One roll per written record: each record is an opportunity for the
   medium to fail underneath it. *)
let plan_damage spec kinds rng ~records =
  let actions = ref [] in
  for _ = 1 to records do
    if Random.State.float rng 1.0 < spec.f_rate then
      match List.nth kinds (Random.State.int rng (List.length kinds)) with
      | Bit_flip -> actions := Flip :: !actions
      | Torn_write -> actions := Tear :: !actions
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
    (function
      | Tear ->
          if size > floor + 1 then
            cut := min !cut (floor + 1 + Random.State.int rng (size - floor - 1))
      | Flip ->
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

(* The bytes left on the medium after a writer of [records] records and
   [size] bytes closed under [faults]. *)
let damage faults path ~records ~size =
  match faults with
  | Some spec when write_kinds spec <> [] ->
      let rng = Random.State.make [| spec.f_seed |] in
      let actions = plan_damage spec (write_kinds spec) rng ~records in
      if actions = [] then size else min size (apply_damage rng path actions)
  | _ -> size

(* ---- writing ----

   The stream goes straight into [path]: an APT file is scratch that
   lives only as long as its run, so no reader ever opens one a crash
   left half-written. *)

let start (config : config) stats : writer =
  if config.page_size <= 0 then invalid_arg "Store_paged.start: page_size";
  let path = temp_path config in
  let out = open_out_bin path in
  let written = ref 0 and records = ref 0 in
  let pages n = if n = 0 then 0 else ((n - 1) / config.page_size) + 1 in
  (* a page counts as written once the stream reaches into it *)
  let tally_written n =
    (match stats with
    | Some s ->
        Io_stats.bump s.Io_stats.bytes_written n;
        Io_stats.bump s.Io_stats.pages_written (pages (!written + n) - pages !written)
    | None -> ());
    written := !written + n
  in
  output_string out Framed.magic;
  tally_written Framed.data_start;
  {
    put =
      (fun payload ->
        let header, trailer = Record_codec.frame payload in
        output_string out header;
        output_string out payload;
        output_string out trailer;
        incr records;
        tally_written (String.length payload + Framed.overhead));
    close =
      (fun () ->
        close_out out;
        let size = !written in
        {
          (* a tear shrinks the medium; readers still expect the [size]
             bytes written, so they see the loss *)
          f_size = damage config.faults path ~records:!records ~size;
          f_records = !records;
          f_path = Some path;
          f_read = (fun stats dir -> open_reader config path size stats dir);
          f_dispose = (fun () -> remove_quietly path);
        });
    abort =
      (fun () ->
        close_out_noerr out;
        remove_quietly path);
  }
