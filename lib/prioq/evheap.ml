(* A ladder queue of event descriptors (Tang, Goh & Thng, "Ladder Queue:
   An O(1) Priority Queue Structure for Large-Scale Discrete Event
   Simulation", ACM TOMACS 2005), for the simulator's inner loop: each
   event carries a (tag, payload, payload, int) tuple, so callers
   schedule without boxing a closure or a variant per event, and pop
   into a caller-owned cursor without building an option or a tuple.
   No time crosses a call as a float (that would box it: nothing here is
   inlined across modules), so a push and a pop each allocate nothing
   beyond amortized growth.

   Events never move.  Each lives in a handle-indexed node table of
   scalar arrays — unboxed float times, int tie-break keys, a packed int
   descriptor (low 8 bits event tag, rest a small non-negative operand)
   and an int link — plus two [Obj.t] payload cells per handle.  The
   queue's three tiers hold handles only:

   - the top, an unsorted list of the events at or after [b.start];
   - up to [max_rungs] rungs of buckets.  A rung of n events has n
     buckets of equal width, from its earliest event to the bound of
     where later pushes can land in it.  A bucket is consumed whole, in
     order: with more than [thres] events and a spread of times it
     spawns a finer rung below, otherwise it is sorted into the bottom;
   - the bottom, a sorted run [bot.(lo .. hi-1)] that pops from [lo].
     A push into a bottom already holding [thres] events with a spread
     of times spreads them over a rung of their own instead.

   The top and the buckets are intrusive lists threaded through [next],
   which also threads the free handles, so moving an event between
   tiers stores an int and never runs the GC write barrier.  The barrier
   fires twice per push (writing the payload cells) and twice per free
   (scrubbing them).

   Exactness.  The pop order is (time, key) exactly, as a binary heap
   would give.  A rung's bucket index is [(x - start) * inv] clamped to
   [0, nb - 1] in the float domain and only then truncated: IEEE
   subtraction and multiplication by a positive constant are monotone,
   and so are the clamp and the truncation, so x <= y implies
   index x <= index y (an [inv] of infinity or 0 at degenerate spreads
   keeps this: NaN and the infinities land in the clamp).  Clamping an
   int after [int_of_float] would not do: an out-of-range float
   truncates to [min_int].  An event goes to the first tier, top down,
   whose unconsumed part its index reaches ([x >= b.start]; index at
   least the rung's current bucket); everything below a rung's current
   bucket came from its consumed buckets, whose indices are smaller, so
   by monotonicity it is strictly earlier.  Equal times share a bucket,
   and the sorts order by key within it.  Times must not be NaN.

   Cost.  A push prepends to the top or a bucket (O(1)) or inserts into
   the short bottom.  Each event moves down a bounded number of times
   before it pops from the bottom in O(1); a rung of n events has n
   buckets, so scanning for the next non-empty one is amortized O(1)
   per event.  The rungs stack their bucket rows in one array, and the
   bottom compacts in place, so a warm queue allocates nothing. *)

(* A flat float box: an all-float record is stored unboxed, so reading
   or writing [f] never allocates (a mutable float field in a mixed
   record would allocate a fresh box per store on the non-flambda
   compiler).  Hot-path event times travel in these, not as float
   arguments. *)
type fbox = { mutable f : float }

(* The queue's float state, flat for the same reason. *)
type bounds = {
  mutable start : float; (* an event at or after [start] goes to the top *)
  mutable top_min : float; (* earliest time in the top; infinity when empty *)
  mutable top_max : float; (* latest; neg_infinity when empty *)
  mutable lo : float; (* the span of the next rung's events *)
  mutable hi : float;
}

type t = {
  (* The node table, indexed by handle. *)
  mutable times : float array;
  mutable key : int array;
  mutable meta : int array;
  mutable next : int array; (* top, bucket or freelist link; -1 ends *)
  mutable slots : Obj.t array; (* 2 cells per handle *)
  mutable free : int; (* freelist head, -1 = empty *)
  mutable fresh : int; (* next never-used handle *)
  mutable size : int;
  mutable next_seq : int;
  scratch : fbox; (* [push]'s time, handed on to [push_keyed] *)
  b : bounds;
  mutable top_head : int;
  mutable top_n : int;
  (* Rung r < rungs has rnb.(r) buckets from rstart.(r), each
     1 / rinv.(r) wide; their list heads are buckets.(rbase.(r) + i),
     and those from i = rcur.(r) on are not consumed yet.  The rungs
     stack their bucket rows in one array, each row after its
     parent's. *)
  mutable rungs : int;
  rstart : float array;
  rinv : float array;
  rnb : int array;
  rbase : int array;
  rcur : int array;
  mutable buckets : int array;
  mutable bot : int array;
  mutable lo : int;
  mutable hi : int;
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

(* A bucket with more events than this spawns a rung (the paper's 50). *)
let thres = 48
let max_rungs = 8

let nil : Obj.t = Obj.repr 0

let cursor () =
  { time = { f = 0.0 }; key_out = 0; tag = 0; iarg = 0; pa = nil; pb = nil }

(* The bucket rows and the bottom start with 256 cells each, allocated
   with the queue: a run's first rung of up to 256 events fits, and a
   later growth, to 512 cells or more, goes straight to the major heap,
   so a warm-up allocates no minor words for them. *)
let create () =
  { times = [||]; key = [||]; meta = [||]; next = [||]; slots = [||];
    free = -1; fresh = 0; size = 0; next_seq = 0; scratch = { f = 0.0 };
    b = { start = neg_infinity; top_min = infinity; top_max = neg_infinity; lo = 0.0; hi = 0.0 };
    top_head = -1; top_n = 0;
    rungs = 0; rstart = Array.make max_rungs 0.0; rinv = Array.make max_rungs 0.0;
    rnb = Array.make max_rungs 0; rbase = Array.make max_rungs 0;
    rcur = Array.make max_rungs 0; buckets = Array.make 256 (-1);
    bot = Array.make 256 0; lo = 0; hi = 0 }

let length t = t.size

(* --- the node table --------------------------------------------------- *)

let grow t =
  let cap = Array.length t.key in
  let ncap = max 64 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.0;
  t.key <- extend t.key 0;
  t.meta <- extend t.meta 0;
  t.next <- extend t.next (-1);
  let slots = Array.make (2 * ncap) nil in
  Array.blit t.slots 0 slots 0 (2 * cap);
  t.slots <- slots

let acquire t =
  let h = t.free in
  if h >= 0 then begin
    t.free <- Array.unsafe_get t.next h;
    h
  end
  else begin
    let h = t.fresh in
    if h = Array.length t.key then grow t;
    t.fresh <- h + 1;
    h
  end

(* Whether event [g] pops after an event at (x, k). *)
let[@inline] after t g x k =
  let y = Array.unsafe_get t.times g in
  y > x || (y = x && Array.unsafe_get t.key g > k)

(* --- the rungs -------------------------------------------------------- *)

(* The clamped, monotone bucket index of time [x] on rung [r]. *)
let[@inline] bucket t r x =
  let d = (x -. Array.unsafe_get t.rstart r) *. Array.unsafe_get t.rinv r in
  let last = Array.unsafe_get t.rnb r - 1 in
  if not (d >= 1.0) then 0 else if d >= float_of_int last then last else int_of_float d

(* Put event [h] in bucket [b] of rung [r]. *)
let[@inline] link t r b h =
  let i = Array.unsafe_get t.rbase r + b in
  Array.unsafe_set t.next h (Array.unsafe_get t.buckets i);
  Array.unsafe_set t.buckets i h

(* Open a rung of [n] buckets for events from [b.lo] to [b.hi] (later
   than it).  The rung ends at the bound of where later pushes can land
   in it, if that is after [b.hi]: the top's start, or the start of the
   first unconsumed bucket of the rung above.  Its last bucket then
   catches no more than its share of them. *)
let open_rung t n =
  let r = t.rungs in
  t.rungs <- r + 1;
  let lo = t.b.lo and hi = t.b.hi in
  let bound =
    if r = 0 then t.b.start
    else
      Array.unsafe_get t.rstart (r - 1)
      +. (float_of_int (Array.unsafe_get t.rcur (r - 1)) /. Array.unsafe_get t.rinv (r - 1))
  in
  Array.unsafe_set t.rstart r lo;
  Array.unsafe_set t.rinv r (float_of_int n /. ((if bound > hi then bound else hi) -. lo));
  Array.unsafe_set t.rnb r n;
  Array.unsafe_set t.rcur r 0;
  let base = if r = 0 then 0 else t.rbase.(r - 1) + t.rnb.(r - 1) in
  Array.unsafe_set t.rbase r base;
  let cap = Array.length t.buckets in
  if base + n > cap then begin
    let b = Array.make (max (base + n) (2 * cap)) (-1) in
    Array.blit t.buckets 0 b 0 base;
    t.buckets <- b
  end
  else Array.fill t.buckets base n (-1)

(* Empty the bottom into a new rung; [hmin] and [hmax] are its earliest
   and latest events, at different times. *)
let spawn t hmin hmax =
  t.b.lo <- Array.unsafe_get t.times hmin;
  t.b.hi <- Array.unsafe_get t.times hmax;
  open_rung t (t.hi - t.lo);
  let r = t.rungs - 1 in
  for i = t.lo to t.hi - 1 do
    let h = Array.unsafe_get t.bot i in
    link t r (bucket t r (Array.unsafe_get t.times h)) h
  done;
  t.lo <- 0;
  t.hi <- 0

(* --- the bottom ------------------------------------------------------- *)

(* Room for one more at [hi]: compact in place, or grow when full. *)
let make_room t =
  let n = t.hi - t.lo in
  if t.lo > 0 then Array.blit t.bot t.lo t.bot 0 n
  else begin
    let bot = Array.make (2 * Array.length t.bot) 0 in
    Array.blit t.bot 0 bot 0 n;
    t.bot <- bot
  end;
  t.lo <- 0;
  t.hi <- n

(* Insert into the sorted bottom, or, when it is full and its times
   differ, spread it over a new rung and put [h] there. *)
let bottom_insert t h =
  let bot = t.bot and x = Array.unsafe_get t.times h and k = Array.unsafe_get t.key h in
  if
    t.hi - t.lo >= thres
    && t.rungs < max_rungs
    && Array.unsafe_get t.times (Array.unsafe_get bot (t.hi - 1))
       > Array.unsafe_get t.times (Array.unsafe_get bot t.lo)
  then begin
    spawn t (Array.unsafe_get bot t.lo) (Array.unsafe_get bot (t.hi - 1));
    let r = t.rungs - 1 in
    link t r (bucket t r x) h
  end
  else begin
    if t.hi = Array.length bot then make_room t;
    let bot = t.bot in
    let j = ref (t.hi - 1) in
    while !j >= t.lo && after t (Array.unsafe_get bot !j) x k do
      Array.unsafe_set bot (!j + 1) (Array.unsafe_get bot !j);
      decr j
    done;
    Array.unsafe_set bot (!j + 1) h;
    t.hi <- t.hi + 1
  end

(* Stage the list from [h] into the empty bottom, reversed: lists are
   built by prepending, so this is insertion order, which is key order
   for {!push}, and a burst of equal times needs no moves to sort. *)
let load t h =
  let h = ref h and n = ref 0 in
  while !h >= 0 do
    if !n = Array.length t.bot then begin
      t.lo <- 0;
      t.hi <- !n;
      make_room t
    end;
    Array.unsafe_set t.bot !n !h;
    incr n;
    h := Array.unsafe_get t.next !h
  done;
  let bot = t.bot in
  for i = 0 to (!n / 2) - 1 do
    let a = Array.unsafe_get bot i in
    Array.unsafe_set bot i (Array.unsafe_get bot (!n - 1 - i));
    Array.unsafe_set bot (!n - 1 - i) a
  done;
  t.lo <- 0;
  t.hi <- !n

(* Insertion sort of the staged bottom: short, and mostly in order. *)
let sort t =
  let bot = t.bot in
  for i = 1 to t.hi - 1 do
    let h = Array.unsafe_get bot i in
    let x = Array.unsafe_get t.times h and k = Array.unsafe_get t.key h in
    let j = ref (i - 1) in
    while !j >= 0 && after t (Array.unsafe_get bot !j) x k do
      Array.unsafe_set bot (!j + 1) (Array.unsafe_get bot !j);
      decr j
    done;
    Array.unsafe_set bot (!j + 1) h
  done

(* The staged events become the bottom, or a rung if they are many and
   their times differ (equal times would share one bucket forever). *)
let settle t =
  let n = t.hi in
  if n > thres && t.rungs < max_rungs then begin
    let times = t.times and bot = t.bot in
    let hmin = ref (Array.unsafe_get bot 0) and hmax = ref (Array.unsafe_get bot 0) in
    for i = 1 to n - 1 do
      let h = Array.unsafe_get bot i in
      let x = Array.unsafe_get times h in
      if x < Array.unsafe_get times !hmin then hmin := h
      else if x > Array.unsafe_get times !hmax then hmax := h
    done;
    if Array.unsafe_get times !hmax > Array.unsafe_get times !hmin then spawn t !hmin !hmax
    else sort t
  end
  else sort t

(* Fill the empty bottom of a non-empty queue: from the next non-empty
   bucket of the last rung, dropping exhausted rungs, and from the top
   once no rung is left. *)
let rec refill t =
  t.lo <- 0;
  t.hi <- 0;
  let r = t.rungs - 1 in
  if r < 0 then begin
    (* The top becomes rung 0, or the bottom if it is short or flat. *)
    let h = t.top_head and n = t.top_n in
    t.b.start <- Float.succ t.b.top_max;
    t.top_head <- -1;
    t.top_n <- 0;
    if n > thres && t.b.top_max > t.b.top_min then begin
      t.b.lo <- t.b.top_min;
      t.b.hi <- t.b.top_max;
      open_rung t n;
      let h = ref h in
      while !h >= 0 do
        let g = !h in
        h := Array.unsafe_get t.next g;
        link t 0 (bucket t 0 (Array.unsafe_get t.times g)) g
      done
    end
    else load t h;
    t.b.top_min <- infinity;
    t.b.top_max <- neg_infinity
  end
  else begin
    let base = Array.unsafe_get t.rbase r and nb = Array.unsafe_get t.rnb r in
    let c = ref (Array.unsafe_get t.rcur r) in
    while !c < nb && Array.unsafe_get t.buckets (base + !c) < 0 do
      incr c
    done;
    if !c < nb then begin
      Array.unsafe_set t.rcur r (!c + 1);
      load t (Array.unsafe_get t.buckets (base + !c))
    end
    else t.rungs <- r
  end;
  if t.hi > 0 then settle t;
  if t.hi = 0 then refill t

(* --- push and pop ----------------------------------------------------- *)

(* The time arrives in a flat box and is read once into a local: a
   float argument would be boxed at every call, since nothing here is
   inlined across modules. *)
let push_keyed t ~(at : fbox) ~key:k ~tag ~iarg pa pb =
  let x = at.f in
  let h = acquire t in
  Array.unsafe_set t.times h x;
  Array.unsafe_set t.key h k;
  Array.unsafe_set t.meta h (tag lor (iarg lsl 8));
  Array.unsafe_set t.slots (2 * h) pa;
  Array.unsafe_set t.slots ((2 * h) + 1) pb;
  t.size <- t.size + 1;
  if x >= t.b.start then begin
    Array.unsafe_set t.next h t.top_head;
    t.top_head <- h;
    t.top_n <- t.top_n + 1;
    if x < t.b.top_min then t.b.top_min <- x;
    if x > t.b.top_max then t.b.top_max <- x
  end
  else begin
    let r = ref 0 and placed = ref false in
    while (not !placed) && !r < t.rungs do
      let b = bucket t !r x in
      if b >= Array.unsafe_get t.rcur !r then begin
        link t !r b h;
        placed := true
      end
      else incr r
    done;
    if not !placed then bottom_insert t h
  end

let reserve t =
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  sq

let push t ~time ~tag ~iarg pa pb =
  t.scratch.f <- time;
  push_keyed t ~at:t.scratch ~key:(reserve t) ~tag ~iarg pa pb

let take t ~until ~strict (c : cursor) =
  if t.size = 0 then -1
  else begin
    if t.lo = t.hi then refill t;
    let h = Array.unsafe_get t.bot t.lo in
    let x = Array.unsafe_get t.times h in
    if (if strict then x >= until else x > until) then -1
    else begin
      t.lo <- t.lo + 1;
      t.size <- t.size - 1;
      (* An empty queue starts over: the next events go to the top. *)
      if t.size = 0 then begin
        t.rungs <- 0;
        t.b.start <- neg_infinity
      end;
      c.time.f <- x;
      c.key_out <- Array.unsafe_get t.key h;
      let m = Array.unsafe_get t.meta h in
      c.tag <- m land 0xff;
      c.iarg <- m lsr 8;
      h
    end
  end

let payload_a t h = Array.unsafe_get t.slots (2 * h)
let payload_b t h = Array.unsafe_get t.slots ((2 * h) + 1)

let free t h =
  Array.unsafe_set t.slots (2 * h) nil;
  Array.unsafe_set t.slots ((2 * h) + 1) nil;
  Array.unsafe_set t.next h t.free;
  t.free <- h

let pop t ~until ~strict (c : cursor) =
  let h = take t ~until ~strict c in
  h >= 0
  && begin
       c.pa <- payload_a t h;
       c.pb <- payload_b t h;
       free t h;
       true
     end
