type t = { key : Siphash.key; fraction : float; threshold : int64 }

(* The sampled range is [0, threshold) within the unsigned 64-bit space of
   a keyed re-hash of the fingerprint.  A threshold at or above 2^63 does
   not fit [Int64.of_float]; its two's-complement bit pattern is the
   value minus 2^64. *)
let create ~key ~fraction =
  let fraction = Float.max 0.0 (Float.min 1.0 fraction) in
  let threshold =
    let x = fraction *. 1.8446744073709552e19 in
    if fraction >= 1.0 then Int64.minus_one
    else if x >= 9.223372036854775808e18 then Int64.of_float (x -. 1.8446744073709552e19)
    else Int64.of_float x
  in
  { key; fraction; threshold }

let selects t fp =
  if t.fraction >= 1.0 then true
  else begin
    let h = Siphash.hash_int64s t.key [ fp ] in
    (* Unsigned comparison of h against the threshold. *)
    Int64.unsigned_compare h t.threshold < 0
  end
