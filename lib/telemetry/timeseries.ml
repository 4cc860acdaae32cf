(* Fixed-capacity downsampling time series.

   A flat pair of parallel arrays bucketed by sim time: bucket i covers
   [i*res, (i+1)*res).  When a sample lands past the last bucket the
   series coarsens — adjacent buckets fold pairwise and the resolution
   doubles — so memory stays bounded at [capacity] buckets forever while
   the horizon grows.  Coarsening is aligned at t = 0 and always by
   powers of two.

   Samples are integers (one per event, a queue depth, a packet size),
   so the per-bucket sums are plain ints and a coarsening pass is
   exact integer addition.  [record] is O(1) amortized (a coarsening pass is O(capacity) but halves the used
   range) and allocation-free after [create]. *)

type t = {
  capacity : int;
  mutable res : float; (* current bucket width, sim seconds *)
  counts : int array;
  sums : int array;
  mutable used : int; (* buckets in use: indices [0, used) *)
  mutable last : int; (* the bucket [record] last computed *)
  window : window;
}

(* Times certain to land in bucket [last]: [record] skips its division
   for them.  A float-only record, so updating it boxes nothing. *)
and window = { mutable lo : float; mutable hi : float }

let create ?(capacity = 256) ~resolution () =
  if capacity < 2 then invalid_arg "Timeseries.create: capacity < 2";
  if not (resolution > 0.0) then
    invalid_arg "Timeseries.create: resolution must be positive";
  { capacity; res = resolution;
    counts = Array.make capacity 0; sums = Array.make capacity 0; used = 0;
    last = 0; window = { lo = infinity; hi = neg_infinity } }

let capacity t = t.capacity
let resolution t = t.res
let used t = t.used
let bucket_count t i = t.counts.(i)
let bucket_sum t i = t.sums.(i)
let bucket_start t i = float_of_int i *. t.res

let total_count t =
  let n = ref 0 in
  for i = 0 to t.used - 1 do
    n := !n + t.counts.(i)
  done;
  !n

let total_sum t =
  let s = ref 0 in
  for i = 0 to t.used - 1 do
    s := !s + t.sums.(i)
  done;
  !s

(* Fold adjacent pairs: bucket i <- buckets 2i + 2i+1, double res. *)
let coarsen t =
  let half = (t.used + 1) / 2 in
  for i = 0 to half - 1 do
    let a = 2 * i and b = (2 * i) + 1 in
    t.counts.(i) <- (t.counts.(a) + if b < t.used then t.counts.(b) else 0);
    t.sums.(i) <- (t.sums.(a) + if b < t.used then t.sums.(b) else 0)
  done;
  Array.fill t.counts half (t.capacity - half) 0;
  Array.fill t.sums half (t.capacity - half) 0;
  t.used <- half;
  t.res <- t.res *. 2.0;
  t.window.lo <- infinity;
  t.window.hi <- neg_infinity

(* The bucket of [time]: [int_of_float (time /. res)], clamped at 0,
   coarsening until it fits.  The window it leaves holds every time
   whose quotient, however it rounds, falls in [i, i + 1): those at
   least [i * res] and below [(i + 1) * res], each edge pulled inwards
   by 2^-50 relative, which covers the division's rounding and the
   edges' own. *)
let bucket t (at : Prioq.Event.fbox) =
  let time = at.f in
  let idx = int_of_float (time /. t.res) in
  let idx = if idx < 0 then 0 else idx in
  let idx = ref idx in
  while !idx >= t.capacity do
    coarsen t;
    let i = int_of_float (time /. t.res) in
    idx := if i < 0 then 0 else i
  done;
  let i = !idx in
  t.last <- i;
  t.window.lo <- float_of_int i *. t.res *. (1.0 +. 0x1p-50);
  t.window.hi <- float_of_int (i + 1) *. t.res *. (1.0 -. 0x1p-50);
  i

(* The time arrives in a flat box and is read here: the dev profile
   compiles with [-opaque], so a float argument would be boxed at every
   call.  Consecutive samples mostly share a bucket, whose window then
   spares the division. *)
let record t ~(at : Prioq.Event.fbox) v =
  let time = at.f in
  let i = if time >= t.window.lo && time < t.window.hi then t.last else bucket t at in
  t.counts.(i) <- t.counts.(i) + 1;
  t.sums.(i) <- t.sums.(i) + v;
  if i >= t.used then t.used <- i + 1

