(* Flat binary min-heap: parallel arrays instead of one boxed
   {priority; seq; value} record per element.  [prio] is an unboxed
   float array, so a push allocates nothing (beyond amortized growth)
   and sift-up/down touch cache-friendly flat storage.  Ties break by
   the insertion sequence number in [seq] (FIFO order). *)

type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { prio = [||]; seq = [||]; vals = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

(* Overwrite vals.(i .. i+len-1) with an immediate so the slots no
   longer reference user values.  When ['a] is [float] the backing
   array is an unboxed float array (Double_array_tag): its slots hold
   no pointers, so there is nothing to scrub — and writing an immediate
   into it through [Obj] would corrupt it, hence the tag guard. *)
let scrub (vals : 'a array) i len =
  if len > 0 then begin
    let repr = Obj.repr vals in
    if Obj.tag repr <> Obj.double_array_tag then
      Array.fill (Obj.obj repr : Obj.t array) i len (Obj.repr 0)
  end

let grow t value =
  let cap = Array.length t.prio in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let prio = Array.make ncap 0.0 in
    let seq = Array.make ncap 0 in
    let vals = Array.make ncap value in
    Array.blit t.prio 0 prio 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    Array.blit t.seq 0 seq 0 t.size;
    (* Array.make filled every slot with [value]; drop the references
       beyond the live prefix (slot [size] is written by the caller's
       push immediately after). *)
    scrub vals t.size (ncap - t.size);
    t.prio <- prio;
    t.seq <- seq;
    t.vals <- vals
  end

let push_key t key ~priority value =
  grow t value;
  let prio = t.prio and seq = t.seq and vals = t.vals in
  (* Hole-based sift-up: shift parents down, write the new element once. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pp = Array.unsafe_get prio p in
    if priority < pp || (priority = pp && key < Array.unsafe_get seq p) then begin
      Array.unsafe_set prio !i pp;
      Array.unsafe_set seq !i (Array.unsafe_get seq p);
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set prio !i priority;
  Array.unsafe_set seq !i key;
  Array.unsafe_set vals !i value

let push t ~priority value =
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  push_key t sq ~priority value

(* Sift the element (p, sq, v) down from the root of the first [t.size]
   slots, writing it into its final slot. *)
let sift_down t p sq v =
  let prio = t.prio and seq = t.seq and vals = t.vals in
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
          if pr < pl || (pr = pl && Array.unsafe_get seq r < Array.unsafe_get seq l)
          then r
          else l
        end
        else l
      in
      let pc = Array.unsafe_get prio c in
      if pc < p || (pc = p && Array.unsafe_get seq c < sq) then begin
        Array.unsafe_set prio !i pc;
        Array.unsafe_set seq !i (Array.unsafe_get seq c);
        Array.unsafe_set vals !i (Array.unsafe_get vals c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set seq !i sq;
  Array.unsafe_set vals !i v

let pop_root t =
  (* pre: t.size > 0 *)
  let top_p = t.prio.(0) and top_v = t.vals.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let p = t.prio.(n) and sq = t.seq.(n) and v = t.vals.(n) in
    sift_down t p sq v
  end;
  (* The vacated slot (the old last slot, or the root itself when the
     heap just emptied) must stop referencing the popped value. *)
  scrub t.vals n 1;
  (top_p, top_v)

let pop t = if t.size = 0 then None else Some (pop_root t)

(* Re-export the flat event heap so library users reach it as
   [Prioq.Event] (this module is the library's curated interface). *)
module Event = Evheap
