(* The compressing store layer: groups consecutive record payloads into
   blocks of [config.zip_block], front-codes each payload against its
   predecessor (shared-prefix length + suffix, varint-framed), and hands
   each block to the base store as a single record. Consecutive APT
   records are highly self-similar — a pass emits runs of nodes with the
   same production, symbol and attribute shape — so sharing prefixes is a
   real delta encoding of [Node.encode] output, not just byte padding.

   Blocks decode front-to-back in one piece, so a backward read (base
   store yields the last block first) simply serves each decoded block in
   reverse: bidirectionality survives compression, which per-record delta
   chains would break.

   Raw bytes — what the base store would have moved for the same records
   without this layer, payload plus per-record framing — are tallied into
   [Io_stats.raw_bytes_*]; the base store tallies the bytes that actually
   hit the medium, so [Io_stats.compression_ratio] falls out of the
   pair. *)

open Apt_store

let common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do incr i done;
  !i

let encode_block payloads =
  let buf = Buffer.create 512 in
  Varint.add buf (List.length payloads);
  let prev = ref "" in
  List.iter
    (fun p ->
      let prefix = common_prefix !prev p in
      Varint.add buf prefix;
      Varint.add buf (String.length p - prefix);
      Buffer.add_substring buf p prefix (String.length p - prefix);
      prev := p)
    payloads;
  Buffer.contents buf

let decode_block s =
  let n, pos = Varint.read s 0 in
  (* every entry takes at least its two varint bytes, so a count past
     the block's remaining bytes is damage, not a list to allocate *)
  if n > String.length s - pos then
    Apt_error.raise_
      (Apt_error.Corrupt_record
         {
           path = None;
           offset = 0;
           detail =
             Printf.sprintf "front-coded block claims %d entries in %d bytes" n
               (String.length s - pos);
         });
  let pos = ref pos in
  let prev = ref "" in
  List.init n (fun _ ->
      let prefix, p1 = Varint.read s !pos in
      let suffix, p2 = Varint.read s p1 in
      if prefix > String.length !prev || suffix > String.length s - p2 then
        Apt_error.raise_
          (Apt_error.Corrupt_record
             {
               path = None;
               offset = !pos;
               detail = "front-coded block refers outside its bounds";
             });
      let payload = String.sub !prev 0 prefix ^ String.sub s p2 suffix in
      pos := p2 + suffix;
      prev := payload;
      payload)

let tally_raw_write stats bytes =
  match stats with
  | Some s -> Io_stats.bump s.Io_stats.raw_bytes_written bytes
  | None -> ()

let tally_raw_read stats bytes =
  match stats with
  | Some s -> Io_stats.bump s.Io_stats.raw_bytes_read bytes
  | None -> ()

let layer (config : config) (base : t) : t =
  let block = max 1 config.zip_block in
  let open_reader (base_file : file) stats dir =
    let base_reader = base_file.f_read stats dir in
    let queue = ref [] in
    let rec next () =
      match !queue with
      | p :: rest ->
          queue := rest;
          Some p
      | [] -> (
          match base_reader.next () with
          | None -> None
          | Some b ->
              let payloads = decode_block b in
              tally_raw_read stats
                (List.fold_left
                   (fun acc p -> acc + String.length p + Framed.overhead)
                   0 payloads);
              queue :=
                (match dir with
                | `Forward -> payloads
                | `Backward -> List.rev payloads);
              next ())
    in
    { next; close_reader = base_reader.close_reader }
  in
  {
    s_name = "zip";
    start =
      (fun stats ->
        let base_writer = base.start stats in
        let pending = ref [] and pending_n = ref 0 and records = ref 0 in
        let flush () =
          if !pending_n > 0 then begin
            base_writer.put (encode_block (List.rev !pending));
            pending := [];
            pending_n := 0
          end
        in
        {
          put =
            (fun payload ->
              tally_raw_write stats (String.length payload + Framed.overhead);
              pending := payload :: !pending;
              incr pending_n;
              incr records;
              if !pending_n >= block then flush ());
          close =
            (fun () ->
              flush ();
              let bf = base_writer.close () in
              {
                bf with
                f_records = !records;
                f_read = (fun stats dir -> open_reader bf stats dir);
              });
          abort = base_writer.abort;
        });
  }
