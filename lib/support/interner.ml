type name = int

(* A translator's name table is shared by every evaluation run against
   that translator; under the batch-evaluation pool those runs happen on
   several domains at once, so the table guards its state with a mutex.
   Operations are short (one hashtable probe, occasionally an array
   grow), so the uncontended cost is a few nanoseconds per intern —
   invisible next to the scanning that produces the lexemes. *)
type t = {
  lock : Mutex.t;
  by_text : (string, name) Hashtbl.t;
  mutable texts : string array;
  mutable next : int;
}

let create ?(initial_size = 64) () =
  {
    lock = Mutex.create ();
    by_text = Hashtbl.create initial_size;
    texts = Array.make (max 1 initial_size) "";
    next = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let grow t =
  let cap = Array.length t.texts in
  if t.next >= cap then begin
    let texts = Array.make (2 * cap) "" in
    Array.blit t.texts 0 texts 0 cap;
    t.texts <- texts
  end

let intern t s =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.by_text s with
  | Some n -> n
  | None ->
      let n = t.next in
      grow t;
      t.texts.(n) <- s;
      t.next <- n + 1;
      Hashtbl.add t.by_text s n;
      n

let find_opt t s = locked t @@ fun () -> Hashtbl.find_opt t.by_text s
let mem t s = locked t @@ fun () -> Hashtbl.mem t.by_text s

let text t n =
  locked t @@ fun () ->
  if n < 0 || n >= t.next then invalid_arg "Interner.text: foreign name";
  t.texts.(n)

let count t = locked t @@ fun () -> t.next

let iter t f =
  (* snapshot under the lock, call back outside it, so [f] may intern *)
  let n, texts = locked t (fun () -> (t.next, t.texts)) in
  for i = 0 to n - 1 do
    f i texts.(i)
  done
