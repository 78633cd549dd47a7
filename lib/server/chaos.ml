(* Deterministic server-layer fault injection, the serving sibling of
   the APT store's SEED:RATE:KINDS idiom. Job-level rolls are keyed by
   (seed, job id, job file) through MD5, so whether a given job is hit —
   and with which kind — is a pure function of the spec and the job,
   independent of worker count or scheduling. That is what lets the
   chaos bench and tests demand that surviving jobs stay byte-identical
   to a fault-free sequential run. Connection-level rolls (drop) are
   keyed by a response serial instead: liveness under drops is the
   asserted property there, not byte equality. *)

type kind = Delay | Crash | Wedge | Drop

type spec = { c_seed : int; c_rate : float; c_kinds : kind list }

let kinds = [ ("delay", Delay); ("crash", Crash); ("wedge", Wedge); ("drop", Drop) ]
let kind_to_string = Lg_support.Kind_spec.name kinds

let parse_spec s =
  Lg_support.Kind_spec.parse ~noun:"chaos" ~example:"9:0.05:crash,drop" ~kinds s
  |> Result.map (fun (c_seed, c_rate, c_kinds) -> { c_seed; c_rate; c_kinds })

let render_spec { c_seed; c_rate; c_kinds } =
  Lg_support.Kind_spec.render ~kinds (c_seed, c_rate, c_kinds)

type t = {
  spec : spec;
  poison : string option;
  delay_seconds : float;
  wedge_seconds : float;
  metrics : Lg_support.Metrics.t;
  serial : int Atomic.t;  (* connection-response roll counter *)
}

let create ?poison ?(delay = 0.02) ?(wedge = 0.5)
    ?(metrics = Lg_support.Metrics.null) spec =
  {
    spec;
    poison;
    delay_seconds = delay;
    wedge_seconds = wedge;
    metrics;
    serial = Atomic.make 0;
  }

let spec t = t.spec
let delay_seconds t = t.delay_seconds
let wedge_seconds t = t.wedge_seconds

(* Two independent uniform draws in [0,1) from one MD5 over the keyed
   material: bytes 0-6 decide *whether* to inject, bytes 7-13 *which*
   kind — platform-stable and order-free. *)
let rolls ~seed key =
  let d = Digest.string (Printf.sprintf "chaos:%d:%s" seed key) in
  let take off =
    let v = ref 0.0 in
    for i = off to off + 6 do
      v := (!v *. 256.0) +. float_of_int (Char.code d.[i])
    done;
    !v /. (256.0 ** 7.0)
  in
  (take 0, take 7)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

type job_action = Delay_job | Crash_job | Wedge_job

let poisoned t ~id ~file =
  match t.poison with
  | None -> false
  | Some sub -> contains ~sub id || contains ~sub file

let job_kinds t =
  List.filter (function Delay | Crash | Wedge -> true | Drop -> false)
    t.spec.c_kinds

let count t k =
  Lg_support.Metrics.incr t.metrics ("server.chaos." ^ kind_to_string k)

let on_job t ~id ~file =
  if poisoned t ~id ~file then begin
    count t Crash;
    Some Crash_job
  end
  else
    match job_kinds t with
    | [] -> None
    | kinds ->
        let u, v = rolls ~seed:t.spec.c_seed (id ^ "\x00" ^ file) in
        if u >= t.spec.c_rate then None
        else begin
          let k = List.nth kinds (int_of_float (v *. float_of_int (List.length kinds))) in
          count t k;
          Some
            (match k with
            | Delay -> Delay_job
            | Crash -> Crash_job
            | Wedge -> Wedge_job
            | Drop -> assert false)
        end

let drop_response t =
  List.mem Drop t.spec.c_kinds
  &&
  let n = Atomic.fetch_and_add t.serial 1 in
  let u, _ = rolls ~seed:t.spec.c_seed (Printf.sprintf "conn:%d" n) in
  let hit = u < t.spec.c_rate in
  if hit then count t Drop;
  hit
