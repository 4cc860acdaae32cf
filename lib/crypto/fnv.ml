let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let step acc byte =
  Int64.mul (Int64.logxor acc (Int64.of_int byte)) prime

let hash_string s =
  let acc = ref offset_basis in
  for i = 0 to String.length s - 1 do
    acc := step !acc (Char.code (String.unsafe_get s i))
  done;
  !acc

let hash_int64 x =
  let acc = ref offset_basis in
  for i = 0 to 7 do
    let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL) in
    acc := step !acc byte
  done;
  !acc

(* The bytes of [Int64.of_int x]: [asr] sign-extends as [of_int]
   does, and the argument stays an unboxed int.  Inlined into both
   entry points, so [hash_int_into] never boxes the state. *)
let[@inline] fold_int x =
  let acc = ref offset_basis in
  for i = 0 to 7 do
    acc := step !acc ((x asr (8 * i)) land 0xff)
  done;
  !acc

let hash_int x = fold_int x
let hash_int_into x b off = Bytes.set_int64_le b off (fold_int x)
