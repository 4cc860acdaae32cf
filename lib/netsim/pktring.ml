(* Growable circular packet buffer: the per-interface scratch storage
   behind both queue disciplines.  [Stdlib.Queue] allocates a cell per
   push; this ring allocates only on capacity growth, so a steady-state
   enqueue/dequeue cycle costs two array writes.  Vacated slots are
   scrubbed so a dequeued packet is never pinned by its old slot. *)

type t = {
  mutable buf : Packet.t array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let none : Packet.t = Obj.magic 0 (* immediate scrub value, never read *)

let create () = { buf = [||]; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let buf = Array.make ncap none in
    for i = 0 to t.len - 1 do
      buf.(i) <- t.buf.((t.head + i) mod cap)
    done;
    t.buf <- buf;
    t.head <- 0
  end

let push t p =
  grow t;
  let cap = Array.length t.buf in
  let i = t.head + t.len in
  t.buf.(if i >= cap then i - cap else i) <- p;
  t.len <- t.len + 1

(* pre: not empty *)
let pop_exn t =
  let i = t.head in
  let p = t.buf.(i) in
  t.buf.(i) <- none;
  let cap = Array.length t.buf in
  t.head <- (if i + 1 >= cap then 0 else i + 1);
  t.len <- t.len - 1;
  p

let pop t = if t.len = 0 then None else Some (pop_exn t)
