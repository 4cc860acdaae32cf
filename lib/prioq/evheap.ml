(* Flat binary min-heap of event descriptors, for the simulator's inner
   loop and for shortest-path searches: each element carries a
   (tag, payload, payload, int) tuple, so callers schedule without
   boxing a closure or a variant per event, and pop into a caller-owned
   cursor without building an option or a tuple.  No time crosses a
   call as a float (that would box it: nothing here is inlined), so a
   push and a pop each allocate nothing beyond amortized growth.

   The heap proper is four parallel SCALAR arrays — unboxed float
   times, int tie-break keys, a packed int descriptor (low 8 bits event
   tag, rest a small non-negative operand) and an int payload handle.
   Payloads never move: they live in a stable side table ([slots], two
   [Obj.t] cells per handle) and the heap shuffles only the handle, so
   a sift step is plain loads and stores with no [caml_modify] write
   barrier — the barrier fires exactly twice per push (writing the
   payloads into the table) and twice per pop (scrubbing them), not
   once per sift level.  An earlier version kept the payloads inline as
   two more parallel arrays; moving them during sifts made the write
   barrier the hottest function in the simulator profile.

   Slot cells hold [Obj.t] on purpose: the simulator's tag handlers
   know the concrete types behind each tag, and a monomorphic table
   keeps every payload access boxing-free.  Cells vacated by a pop are
   scrubbed so finished events never pin packets or closures live.
   Free handles form a freelist threaded through their own first cell
   as an immediate int. *)

(* A flat float box: an all-float record is stored unboxed, so reading
   or writing [f] never allocates (a mutable float field in a mixed
   record would allocate a fresh box per store on the non-flambda
   compiler).  Hot-path event times travel in these, not as float
   arguments. *)
type fbox = { mutable f : float }

type t = {
  mutable prio : float array;
  mutable key : int array;
  mutable meta : int array;
  mutable hnd : int array;
  mutable slots : Obj.t array; (* 2 cells per handle *)
  mutable free : int; (* freelist head, -1 = empty *)
  mutable fresh : int; (* next never-used handle *)
  mutable size : int;
  mutable next_seq : int;
  scratch : fbox; (* [push]'s time, handed on to [push_keyed] *)
}

(* Popped-event cursor; [time] is an fbox so a pop stores it unboxed. *)
type cursor = {
  time : fbox;
  mutable key_out : int;
  mutable tag : int;
  mutable iarg : int;
  mutable pa : Obj.t;
  mutable pb : Obj.t;
}

let nil : Obj.t = Obj.repr 0

let cursor () =
  { time = { f = 0.0 }; key_out = 0; tag = 0; iarg = 0; pa = nil; pb = nil }

let create () =
  { prio = [||]; key = [||]; meta = [||]; hnd = [||]; slots = [||];
    free = -1; fresh = 0; size = 0; next_seq = 0; scratch = { f = 0.0 } }

let length t = t.size

(* Every live element owns exactly one handle and every released handle
   is on the freelist, so when the freelist is empty [fresh = size] and
   the post-grow capacity bound [size < cap] keeps fresh handles inside
   [slots] (which has two cells per heap slot). *)
let acquire t =
  let h = t.free in
  if h >= 0 then begin
    t.free <- (Obj.obj (Array.unsafe_get t.slots (2 * h)) : int);
    h
  end
  else begin
    let h = t.fresh in
    t.fresh <- h + 1;
    h
  end

let release t h =
  Array.unsafe_set t.slots (2 * h) (Obj.repr t.free);
  Array.unsafe_set t.slots ((2 * h) + 1) nil;
  t.free <- h

let grow t =
  let cap = Array.length t.prio in
  if t.size = cap then begin
    let ncap = max 64 (2 * cap) in
    let prio = Array.make ncap 0.0 in
    let key = Array.make ncap 0 in
    let meta = Array.make ncap 0 in
    let hnd = Array.make ncap 0 in
    let slots = Array.make (2 * ncap) nil in
    Array.blit t.prio 0 prio 0 t.size;
    Array.blit t.key 0 key 0 t.size;
    Array.blit t.meta 0 meta 0 t.size;
    Array.blit t.hnd 0 hnd 0 t.size;
    Array.blit t.slots 0 slots 0 (2 * t.fresh);
    t.prio <- prio;
    t.key <- key;
    t.meta <- meta;
    t.hnd <- hnd;
    t.slots <- slots
  end

(* The time arrives in a flat box and is read once into a local: a
   float argument would be boxed at every call, since nothing here is
   inlined across modules. *)
let push_keyed t ~(at : fbox) ~key:k ~tag ~iarg pa pb =
  let time = at.f in
  grow t;
  let h = acquire t in
  Array.unsafe_set t.slots (2 * h) pa;
  Array.unsafe_set t.slots ((2 * h) + 1) pb;
  let prio = t.prio and key = t.key and meta = t.meta and hnd = t.hnd in
  let m = tag lor (iarg lsl 8) in
  (* Hole-based sift-up: shift parents down, write the new element once. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pp = Array.unsafe_get prio p in
    if time < pp || (time = pp && k < Array.unsafe_get key p) then begin
      Array.unsafe_set prio !i pp;
      Array.unsafe_set key !i (Array.unsafe_get key p);
      Array.unsafe_set meta !i (Array.unsafe_get meta p);
      Array.unsafe_set hnd !i (Array.unsafe_get hnd p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set prio !i time;
  Array.unsafe_set key !i k;
  Array.unsafe_set meta !i m;
  Array.unsafe_set hnd !i h

let reserve t =
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  sq

let push t ~time ~tag ~iarg pa pb =
  t.scratch.f <- time;
  push_keyed t ~at:t.scratch ~key:(reserve t) ~tag ~iarg pa pb

(* Sift the element (prio.(n), k, m, h) down from the root of the
   first [t.size] slots, writing it into its final slot.  The time is
   read here, from slot [n], rather than passed in: a float argument
   would be boxed on every pop. *)
let sift_down t n k m h =
  let prio = t.prio and key = t.key and meta = t.meta and hnd = t.hnd in
  let p = Array.unsafe_get prio n in
  let size = t.size in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < size then begin
          let pl = Array.unsafe_get prio l and pr = Array.unsafe_get prio r in
          if pr < pl || (pr = pl && Array.unsafe_get key r < Array.unsafe_get key l)
          then r
          else l
        end
        else l
      in
      let pc = Array.unsafe_get prio c in
      if pc < p || (pc = p && Array.unsafe_get key c < k) then begin
        Array.unsafe_set prio !i pc;
        Array.unsafe_set key !i (Array.unsafe_get key c);
        Array.unsafe_set meta !i (Array.unsafe_get meta c);
        Array.unsafe_set hnd !i (Array.unsafe_get hnd c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set key !i k;
  Array.unsafe_set meta !i m;
  Array.unsafe_set hnd !i h

let remove_root t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let k = t.key.(n) and m = t.meta.(n) and h = t.hnd.(n) in
    sift_down t n k m h
  end

let pop t ~until ~strict (c : cursor) =
  if t.size = 0 then false
  else begin
    let p = t.prio.(0) in
    if (if strict then p >= until else p > until) then false
    else begin
      c.time.f <- p;
      c.key_out <- t.key.(0);
      let m = t.meta.(0) in
      c.tag <- m land 0xff;
      c.iarg <- m lsr 8;
      let h = t.hnd.(0) in
      c.pa <- Array.unsafe_get t.slots (2 * h);
      c.pb <- Array.unsafe_get t.slots ((2 * h) + 1);
      release t h;
      remove_root t;
      true
    end
  end
