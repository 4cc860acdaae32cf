(* Mergeable HDR-style log-bucketed histogram — the only one in the
   library.

   Bin 0 collects values <= 0, bin i (1 <= i < n-1) the upper-inclusive
   range (2^(i-2+min_exp), 2^(i-1+min_exp)], last bin overflow; the
   Prometheus exporter emits exactly these edges as le=.

   Histograms are merged (the robustness oracle folds per-run
   latencies), and a merge must not depend on grouping.  Bucket counts
   are ints, so their addition is exact; the running sum would NOT be
   (float addition is commutative but not associative), so the sum is
   kept in fixed point — an integer count of 2^-26 quanta (~15 ns when
   the unit is seconds).  Integer addition is exact, hence merge is
   commutative AND associative. *)

type t = {
  counts : int array; (* [0]: <= 0; [i]: (2^(i-2+min_exp), 2^(i-1+min_exp)];
                         last: overflow *)
  min_exp : int;
  mutable count : int;
  mutable sum_q : int; (* fixed-point: value * 2^26, rounded to nearest *)
}

let quantum = 0x1p-26

let create ?(buckets = 32) ?(min_exp = 0) () =
  if buckets < 3 then invalid_arg "Hist.create: need at least 3 buckets";
  { counts = Array.make buckets 0; min_exp; count = 0; sum_q = 0 }

let copy t = { t with counts = Array.copy t.counts }

let buckets t = Array.length t.counts
let min_exp t = t.min_exp
let count t = t.count
let bucket_count t i = t.counts.(i)

(* 2^36 units are 2^62 quanta, the first count an OCaml int cannot
   hold; int_of_float past it (or of an infinity or NaN) is unspecified
   and wraps the sum.  The comparison is false for NaN.  The rounding is
   [Float.round]'s, half away from zero, done inline: below 2^62 the
   truncation is exact and so is the fraction it leaves. *)
let[@inline] quantize v =
  if Float.abs v < 0x1p36 then begin
    let q = v *. 0x1p26 in
    let i = int_of_float q in
    let frac = q -. float_of_int i in
    if frac >= 0.5 then i + 1 else if frac <= -0.5 then i - 1 else i
  end
  else 0

let sum t = float_of_int t.sum_q *. quantum
let mean t = if t.count = 0 then 0.0 else sum t /. float_of_int t.count

(* [ceil (log2 v)] for a finite positive [v], as the C library gives
   it.  A normal [v] whose mantissa field is at least 2^20 lies at least
   2^-32 above 2^k (k its binary exponent), where log2 is more than
   1e-10 past k and well clear of its rounding: the answer is k + 1,
   read off the bits.  Nearer a power of two, or subnormal, ask log2. *)
let[@inline] ceil_log2 v =
  let bits = Int64.bits_of_float v in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) in
  if biased > 0 && Int64.to_int bits land 0xF_FFFF_FFFF_FFFF >= 0x10_0000 then biased - 1022
  else int_of_float (Float.ceil (Float.log2 v))

(* ceil log2, not floor: buckets are upper-inclusive (2^(e-1), 2^e] so
   they agree with the le= edges the Prometheus exporter emits. *)
let[@inline] bucket_index t v =
  if v <= 0.0 then 0
  else begin
    let n = Array.length t.counts in
    (* not (v < infinity) also catches NaN; int_of_float of either is
       unspecified, so route both to the overflow bin explicitly. *)
    if not (v < infinity) then n - 1
    else begin
      let e = ceil_log2 v in
      let i = e - t.min_exp + 1 in
      if i < 1 then 1 else if i >= n then n - 1 else i
    end
  end

let[@inline] record t v =
  let i = bucket_index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum_q <- t.sum_q + quantize v

(* [record] is inlined here, with [bucket_index] and [quantize], so the
   difference stays unboxed: a float passed to a function is boxed
   (modules are compiled [-opaque] and there is no flambda). *)
let record_since t ~(now : Prioq.Event.fbox) ~(since : Prioq.Event.fbox) =
  record t (now.f -. since.f)

let bucket_upper t i =
  let n = Array.length t.counts in
  if i <= 0 then 0.0
  else if i >= n - 1 then infinity
  else Float.pow 2.0 (float_of_int (i - 1 + t.min_exp))

let uppers t = Array.init (Array.length t.counts) (bucket_upper t)

let same_shape a b =
  Array.length a.counts = Array.length b.counts && a.min_exp = b.min_exp

let merge_into ~into src =
  if not (same_shape into src) then
    invalid_arg "Hist.merge_into: incompatible bucket shapes";
  for i = 0 to Array.length into.counts - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.count <- into.count + src.count;
  into.sum_q <- into.sum_q + src.sum_q

let merge a b =
  let r = copy a in
  merge_into ~into:r b;
  r

(* Deterministic quantile: the inclusive upper edge of the first bucket
   whose cumulative count reaches ceil(q * total).  Pure integer
   arithmetic over the bucket counts, so any two histograms with equal
   counts report equal quantiles. *)
let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Hist.quantile: q outside [0,1]";
  if t.count = 0 then 0.0
  else begin
    let target =
      let x = int_of_float (Float.ceil (q *. float_of_int t.count)) in
      if x < 1 then 1 else x
    in
    let n = Array.length t.counts in
    let rec go i acc =
      if i >= n then infinity
      else
        let acc = acc + t.counts.(i) in
        if acc >= target then bucket_upper t i else go (i + 1) acc
    in
    go 0 0
  end

let p50 t = quantile t 0.5
let p95 t = quantile t 0.95
let p99 t = quantile t 0.99
