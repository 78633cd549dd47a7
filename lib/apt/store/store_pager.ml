(* Page-grained I/O for the paged stores: an LRU buffer pool over a
   backing file, with optional read-ahead, plus a page-buffered append
   writer. All byte/page/seek accounting for paged stores happens here.

   Cost model: one physical operation transfers one contiguous byte range
   and costs a seek only when it does not start where the previous
   operation left the head. Pool entries hold a contiguous *segment* of a
   page: a miss fetches from the requested offset toward the side the
   caller says the scan needs next ([want]), and later requests extend the
   segment with prefix/suffix fetches instead of re-reading held bytes.
   The codec requests each record's bytes in scan order and a read that
   spans pages serves them in that order, so no page is evicted before
   its bytes are used. A full sequential scan therefore moves exactly
   [size] bytes, whatever the pool and read-ahead sizes, and a partial
   read (say, just the root record) is never charged for bytes on the
   far side of a frame.

   This is also where the resilience policy lives. Every physical
   transfer runs under a bounded retry-with-backoff loop: a transient
   fault (injected EIO or short read — see [Apt_error.Transient]) is
   retried up to [max_attempts] times with the head position invalidated
   so the next attempt re-seeks; each repeat is tallied into
   [Io_stats.retries]. When the budget runs out the pages covering the
   failing range are quarantined — further reads of them fail
   immediately — and the caller sees a typed [Exhausted_retries]. *)

type page = {
  mutable base : int;  (** offset within the page of [data]'s first byte *)
  mutable data : string;
  mutable tick : int;
  mutable prefetched : bool;
}

type t = {
  ic : in_channel;
  path : string;
  size : int;
  page_size : int;
  capacity : int;
  prefetch : int;
  stats : Io_stats.t option;
  pages : (int, page) Hashtbl.t;
  quarantined : (int, unit) Hashtbl.t;
  faults : (Apt_store.fault_spec * Random.State.t) option;
  mutable clock : int;
  mutable phys : int;  (** where the medium's head currently sits *)
  mutable last_page : int;  (** last explicitly requested page *)
  mutable last_dir : int;  (** +1 / -1 / 0: detected scan direction *)
}

let max_attempts = 4

let create ?stats ?faults ~page_size ~capacity ~prefetch
    ~path ~size () =
  if page_size <= 0 then invalid_arg "Store_pager.create: page_size";
  let faults =
    match faults with
    | Some ({ Apt_store.f_kinds; _ } as spec)
      when List.exists
             (function
               | Apt_store.Transient_io | Apt_store.Short_read -> true
               | _ -> false)
             f_kinds ->
        Some (spec, Random.State.make [| spec.Apt_store.f_seed |])
    | _ -> None
  in
  {
    ic = open_in_bin path;
    path;
    size;
    page_size;
    capacity = max 2 capacity;
    prefetch = max 0 prefetch;
    stats;
    pages = Hashtbl.create 16;
    quarantined = Hashtbl.create 4;
    faults;
    clock = 0;
    phys = 0;
    last_page = min_int;
    last_dir = 0;
  }

let close t = close_in t.ic

let page_len t n = min t.page_size (t.size - (n * t.page_size))
let tally f t = match t.stats with Some s -> f s | None -> ()

let evict_to_capacity t =
  while Hashtbl.length t.pages >= t.capacity do
    let victim =
      Hashtbl.fold
        (fun n p acc ->
          match acc with
          | Some (_, best) when best <= p.tick -> acc
          | _ -> Some (n, p.tick))
        t.pages None
    in
    match victim with
    | Some (n, _) -> Hashtbl.remove t.pages n
    | None -> ()
  done

(* Roll the fault dice before a physical read. Only the read-side kinds
   are considered here; write-side kinds (bit flips, torn writes) are
   applied to the medium at [Store_paged]'s writer close. *)
let maybe_inject t ~len =
  match t.faults with
  | None -> ()
  | Some (spec, rng) ->
      if Random.State.float rng 1.0 < spec.Apt_store.f_rate then begin
        let kinds =
          List.filter
            (function
              | Apt_store.Transient_io | Apt_store.Short_read -> true
              | _ -> false)
            spec.Apt_store.f_kinds
        in
        match List.nth kinds (Random.State.int rng (List.length kinds)) with
        | Apt_store.Transient_io -> Apt_error.transient "injected EIO"
        | Apt_store.Short_read ->
            (* the device really moved some bytes before giving up *)
            let got = if len <= 1 then 0 else Random.State.int rng len in
            (try ignore (really_input_string t.ic got) with End_of_file -> ());
            Apt_error.transient
              (Printf.sprintf "injected short read (%d of %d bytes)" got len)
        | _ -> ()
      end

let quarantine_range t ~start ~stop =
  let first = start / t.page_size
  and last = if stop > start then (stop - 1) / t.page_size else start / t.page_size in
  for n = first to last do
    if not (Hashtbl.mem t.quarantined n) then begin
      Hashtbl.replace t.quarantined n ();
      tally
        (fun s ->
          Io_stats.bump s.Io_stats.pages_quarantined (1))
        t
    end
  done

let check_quarantine t ~start ~stop =
  let first = start / t.page_size
  and last = if stop > start then (stop - 1) / t.page_size else start / t.page_size in
  for n = first to last do
    if Hashtbl.mem t.quarantined n then
      Apt_error.raise_
        (Apt_error.Exhausted_retries
           {
             path = Some t.path;
             attempts = max_attempts;
             detail = Printf.sprintf "page %d is quarantined" n;
           })
  done

(* One physical transfer of the absolute byte range [start, stop), under
   the bounded retry policy. *)
let transfer t ~start ~stop =
  check_quarantine t ~start ~stop;
  let len = stop - start in
  let attempt () =
    maybe_inject t ~len;
    if start <> t.phys then begin
      tally (fun s -> Io_stats.bump s.Io_stats.seeks 1) t;
      seek_in t.ic start
    end;
    let run =
      try really_input_string t.ic len
      with End_of_file ->
        Apt_error.raise_
          (Apt_error.Truncated_file
             {
               path = Some t.path;
               offset = start;
               detail = "page read past end of file";
             })
    in
    t.phys <- stop;
    tally (fun s -> Io_stats.bump s.Io_stats.bytes_read len) t;
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
      t.phys <- -1;
      if n >= max_attempts then begin
        quarantine_range t ~start ~stop;
        Apt_error.raise_
          (Apt_error.Exhausted_retries
             { path = Some t.path; attempts = n; detail = msg })
      end
      else begin
        tally (fun s -> Io_stats.bump s.Io_stats.retries 1) t;
        backoff n;
        go (n + 1)
      end
  in
  let m = Lg_support.Metrics.ambient () in
  if not (Lg_support.Metrics.enabled m) then go 1
  else begin
    (* how long a frame read that hit transient faults took to recover —
       the retry-latency distribution of the resilience layer *)
    let retries_before =
      match t.stats with Some s -> Io_stats.get s.Io_stats.retries | None -> 0
    in
    let t0 = Unix.gettimeofday () in
    let run = go 1 in
    (match t.stats with
    | Some s when Io_stats.get s.Io_stats.retries > retries_before ->
        Lg_support.Metrics.observe m
          ~buckets:[ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0 ]
          "apt.retry_recovery_seconds"
          (Unix.gettimeofday () -. t0)
    | _ -> ());
    run
  end

let pread t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.size then
    Apt_error.raise_
      (Apt_error.Truncated_file
         { path = Some t.path; offset = pos; detail = "read past end of file" });
  if len = 0 then "" else transfer t ~start:pos ~stop:(pos + len)

let touch t p =
  t.clock <- t.clock + 1;
  p.tick <- t.clock;
  if p.prefetched then begin
    p.prefetched <- false;
    tally (fun s -> Io_stats.bump s.Io_stats.prefetch_hits 1) t
  end

(* The low edge a [`Low]-widened fetch of page [n] may reach: the file
   signature on page 0 was already read raw by the sniff, so the pool
   never re-fetches it. *)
let low_edge t n =
  if n = 0 then min Apt_store.Framed.data_start (page_len t 0) else 0

(* Serve bytes [lo, hi) of page [n]'s local coordinates. On a miss the
   fetch is widened to the end of the page on the [want] side (those
   bytes carry the rest of the record the caller is decoding); the other
   side stays unread until the scan actually gets there, at which point
   the segment is extended in place. Sequential misses additionally pull
   whole read-ahead pages in the scan direction. *)
let page_slice t n ~lo ~hi ~(want : [ `Low | `High ]) =
  let plen = page_len t n in
  let start_of n = n * t.page_size in
  let dir =
    if n = t.last_page + 1 then 1 else if n = t.last_page - 1 then -1 else 0
  in
  let sequential = dir <> 0 in
  let dir = if dir <> 0 then dir else t.last_dir in
  t.last_page <- n;
  if dir <> 0 then t.last_dir <- dir;
  let serve p = String.sub p.data (lo - p.base) (hi - lo) in
  match Hashtbl.find_opt t.pages n with
  | Some p when p.base <= lo && hi <= p.base + String.length p.data ->
      touch t p;
      tally (fun s -> Io_stats.bump s.Io_stats.pool_hits 1) t;
      serve p
  | Some p ->
      (* held segment doesn't cover the request: extend it *)
      tally (fun s -> Io_stats.bump s.Io_stats.pool_misses 1) t;
      let dlo, dhi =
        match want with `Low -> (low_edge t n, hi) | `High -> (lo, plen)
      in
      let dlo = min dlo p.base and dhi = max dhi (p.base + String.length p.data) in
      if dlo < p.base then begin
        let prefix = transfer t ~start:(start_of n + dlo) ~stop:(start_of n + p.base) in
        p.data <- prefix ^ p.data;
        p.base <- dlo
      end;
      let pend = p.base + String.length p.data in
      if dhi > pend then
        p.data <- p.data ^ transfer t ~start:(start_of n + pend) ~stop:(start_of n + dhi);
      touch t p;
      serve p
  | None ->
      tally (fun s -> Io_stats.bump s.Io_stats.pool_misses 1) t;
      let dlo, dhi =
        match want with `Low -> (low_edge t n, hi) | `High -> (lo, plen)
      in
      (* read-ahead: whole neighbouring pages in the scan direction, in
         the same physical transfer, stopping at any page already held *)
      let ahead = if sequential then min t.prefetch (t.capacity - 1) else 0 in
      let last_file_page = if t.size = 0 then -1 else (t.size - 1) / t.page_size in
      let lo_page, hi_page =
        if dir > 0 then begin
          let h = ref n in
          while
            !h < min last_file_page (n + ahead)
            && not (Hashtbl.mem t.pages (!h + 1))
          do
            incr h
          done;
          (n, !h)
        end
        else if dir < 0 then begin
          let l = ref n in
          while !l > max 0 (n - ahead) && not (Hashtbl.mem t.pages (!l - 1)) do
            decr l
          done;
          (!l, n)
        end
        else (n, n)
      in
      let start =
        if lo_page < n then start_of lo_page + low_edge t lo_page
        else start_of n + dlo
      in
      let stop = if hi_page > n then start_of hi_page + page_len t hi_page else start_of n + dhi in
      let run = transfer t ~start ~stop in
      tally
        (fun s -> Io_stats.bump s.Io_stats.pages_read (hi_page - lo_page + 1))
        t;
      for m = lo_page to hi_page do
        evict_to_capacity t;
        t.clock <- t.clock + 1;
        let m_lo = max start (start_of m) and m_hi = min stop (start_of m + page_len t m) in
        Hashtbl.replace t.pages m
          {
            base = m_lo - start_of m;
            data = String.sub run (m_lo - start) (m_hi - m_lo);
            tick = t.clock;
            prefetched = m <> n;
          }
      done;
      (* high-water page residency of the buffer pool, for manifests *)
      let mreg = Lg_support.Metrics.ambient () in
      if Lg_support.Metrics.enabled mreg then
        Lg_support.Metrics.set_max mreg "apt.pool_resident_pages"
          (float_of_int (Hashtbl.length t.pages));
      let p = Hashtbl.find t.pages n in
      touch t p;
      p.prefetched <- false;
      serve p

let read t ~pos ~len ~want =
  if pos < 0 || len < 0 || pos + len > t.size then
    Apt_error.raise_
      (Apt_error.Truncated_file
         { path = Some t.path; offset = pos; detail = "read past end of file" });
  if len = 0 then ""
  else begin
    let first = pos / t.page_size and last = (pos + len - 1) / t.page_size in
    if first = last then
      page_slice t first ~lo:(pos - (first * t.page_size))
        ~hi:(pos + len - (first * t.page_size)) ~want
    else begin
      (* Pages are visited in the scan direction ([`Low] walks down), the
         order the caller consumes them in, so a page pulled in by
         read-ahead is served before any later fetch can evict it. The
         far page is fetched only as far as the read reaches: a partial
         scan (the root record alone) is never charged for the bytes of
         the next record. Interior pages lie entirely inside this one record, so pooling
         them buys nothing — a record wider than the pool would evict the
         very boundary pages the scan is about to revisit. Absent interior
         pages are fetched raw, in contiguous runs, and never pooled. *)
      let parts = Array.make (last - first + 1) "" in
      let step, near, far, back =
        match want with
        | `High -> (1, first, last, `Low)
        | `Low -> (-1, last, first, `High)
      in
      let slice n =
        parts.(n - first) <-
          page_slice t n
            ~lo:(if n = first then pos - (first * t.page_size) else 0)
            ~hi:(if n = last then pos + len - (last * t.page_size) else page_len t n)
            ~want:(if n = far then back else want)
      in
      slice near;
      let n = ref (near + step) in
      while !n <> far do
        if Hashtbl.mem t.pages !n then begin
          slice !n;
          n := !n + step
        end
        else begin
          let m = ref !n in
          while !m + step <> far && not (Hashtbl.mem t.pages (!m + step)) do
            m := !m + step
          done;
          let lo = min !n !m and hi = max !n !m in
          tally
            (fun s ->
              Io_stats.bump s.Io_stats.pool_misses (hi - lo + 1);
              Io_stats.bump s.Io_stats.pages_read (hi - lo + 1))
            t;
          parts.(lo - first) <-
            transfer t ~start:(lo * t.page_size)
              ~stop:((hi * t.page_size) + page_len t hi);
          n := !m + step
        end
      done;
      slice far;
      let run = String.concat "" (Array.to_list parts) in
      if String.length run <> len then
        Apt_error.raise_
          (Apt_error.Truncated_file
             {
               path = Some t.path;
               offset = pos;
               detail = "page assembly came up short";
             });
      run
    end
  end

(* ---- page-buffered append writer ----

   Crash-safe: the stream goes into [path ^ ".part"] and is atomically
   renamed over [path] on close, so a failure mid-write never leaves a
   partial file at the final path. *)

type w = {
  out : Apt_store.Atomic_out.ch;
  w_page_size : int;
  w_stats : Io_stats.t option;
  buf : Buffer.t;
  mutable written : int;
}

let create_writer ?stats ?(durable = false) ~page_size ~path () =
  if page_size <= 0 then invalid_arg "Store_pager.create_writer: page_size";
  {
    out = Apt_store.Atomic_out.create ~durable path;
    w_page_size = page_size;
    w_stats = stats;
    buf = Buffer.create (2 * page_size);
    written = 0;
  }

let tally_w f w = match w.w_stats with Some s -> f s | None -> ()

let flush_pages w ~all =
  let len = Buffer.length w.buf in
  let whole = len / w.w_page_size * w.w_page_size in
  let flushed = if all then len else whole in
  if flushed > 0 then begin
    let s = Buffer.contents w.buf in
    output_substring (Apt_store.Atomic_out.channel w.out) s 0 flushed;
    Buffer.clear w.buf;
    Buffer.add_substring w.buf s flushed (len - flushed);
    w.written <- w.written + flushed;
    tally_w
      (fun st ->
        Io_stats.bump st.Io_stats.bytes_written flushed;
        Io_stats.bump st.Io_stats.pages_written
          ((flushed + w.w_page_size - 1) / w.w_page_size))
      w
  end

let append w s =
  Buffer.add_string w.buf s;
  if Buffer.length w.buf >= w.w_page_size then flush_pages w ~all:false

let close_writer w =
  flush_pages w ~all:true;
  Apt_store.Atomic_out.commit w.out;
  w.written

let abort_writer w = Apt_store.Atomic_out.abort w.out
