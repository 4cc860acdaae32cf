type key = { k0 : int64; k1 : int64 }

let key_of_ints k0 k1 = { k0; k1 }

let key_of_string s =
  let h0 = Fnv.hash_string s in
  let h1 = Fnv.hash_string (s ^ "\x01siphash-key-expansion") in
  { k0 = h0; k1 = h1 }

let[@inline] rotl x b = Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

(* The one SipHash-2-4 kernel.  It hashes the little-endian byte string
   [fields ^ words ^ s], where [fields] is the first [nf] of the ten
   inline words [a b c d e w t0 t1 t2 t3] (ints sign-extended; [w] is
   read in place, little-endian, from bytes [woff, woff + 8) of [wb]);
   each public function fills one source and leaves the others empty.

   Without flambda, ocamlopt keeps an int64 unboxed only in a local ref
   that never crosses a function boundary, so the state [v0..v3] and the
   message word [m] live here and every SipRound is written out in this
   function: a helper taking or returning the state would box a fresh
   Int64 on every assignment.  The result would be boxed on its way out
   too, so the kernel is inlined into its two instances below, which
   each turn it into what their callers read.  Blocks [0, n) are the
   message words, block [n] the length block, block [n + 1]
   finalization. *)
let[@inline] kernel key nf a b c d e wb woff t0 t1 t2 t3 words s =
  let v0 = ref (Int64.logxor key.k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor key.k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor key.k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor key.k1 0x7465646279746573L) in
  let nl = List.length words and len = String.length s in
  let ns = len / 8 in
  let n = nf + nl + ns in
  (* Length block: the total byte length mod 256 in the top byte over
     the trailing [len mod 8] bytes of [s]. *)
  let last = ref (Int64.shift_left (Int64.of_int (((8 * (nf + nl)) + len) land 0xff)) 56) in
  for j = (8 * ns) to len - 1 do
    last :=
      Int64.logor !last
        (Int64.shift_left (Int64.of_int (Char.code (String.unsafe_get s j))) (8 * (j - (8 * ns))))
  done;
  let rest = ref words and m = ref 0L in
  for i = 0 to n + 1 do
    if i < nf then
      m :=
        (match i with
         | 0 -> Int64.of_int a
         | 1 -> Int64.of_int b
         | 2 -> Int64.of_int c
         | 3 -> Int64.of_int d
         | 4 -> Int64.of_int e
         | 5 -> Bytes.get_int64_le wb woff
         | 6 -> Int64.of_int t0
         | 7 -> Int64.of_int t1
         | 8 -> Int64.of_int t2
         | _ -> Int64.of_int t3)
    else if i < nf + nl then begin
      match !rest with
      | x :: tl ->
          m := x;
          rest := tl
      | [] -> ()
    end
    else if i < n then m := String.get_int64_le s (8 * (i - nf - nl))
    else m := !last;
    let final = i > n in
    if final then v2 := Int64.logxor !v2 0xffL else v3 := Int64.logxor !v3 !m;
    for _ = 1 to if final then 4 else 2 do
      v0 := Int64.add !v0 !v1;
      v1 := rotl !v1 13;
      v1 := Int64.logxor !v1 !v0;
      v0 := rotl !v0 32;
      v2 := Int64.add !v2 !v3;
      v3 := rotl !v3 16;
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := rotl !v3 21;
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := rotl !v1 17;
      v1 := Int64.logxor !v1 !v2;
      v2 := rotl !v2 32
    done;
    if not final then v0 := Int64.logxor !v0 !m
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

(* With [out] empty the hash comes back boxed (3 words); otherwise it is
   written into [out] and the result is a constant, so the hash is
   never boxed. *)
let digest key nf a b c d e wb woff t0 t1 t2 t3 words s out off =
  let h = kernel key nf a b c d e wb woff t0 t1 t2 t3 words s in
  if Bytes.length out = 0 then h
  else begin
    Bytes.set_int64_ne out off h;
    0L
  end

let hash key s = digest key 0 0 0 0 0 0 Bytes.empty 0 0 0 0 0 [] s Bytes.empty 0
let hash_int64s key words = digest key 0 0 0 0 0 0 Bytes.empty 0 0 0 0 0 words "" Bytes.empty 0
let hash_int key x = digest key 1 x 0 0 0 0 Bytes.empty 0 0 0 0 0 [] "" Bytes.empty 0

let hash_int_bits key x =
  Int64.to_int
    (Int64.shift_right_logical (kernel key 1 x 0 0 0 0 Bytes.empty 0 0 0 0 0 [] "") 11)

let hash_fields key a b c d e wb woff ~tail t0 t1 t2 t3 out off =
  if tail < 0 || tail > 4 then invalid_arg "Siphash.hash_fields: tail outside [0,4]";
  digest key (6 + tail) a b c d e wb woff t0 t1 t2 t3 [] "" out off
