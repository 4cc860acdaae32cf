(** SipHash-2-4: a keyed 64-bit pseudo-random function.

    The dissertation's prototype computes packet fingerprints with
    UHASH/UMAC (§5.3.1, §7.1); UMAC is not available offline, so we
    substitute SipHash-2-4, which provides the same abstract guarantee the
    protocols need — a fast keyed PRF whose outputs an adversary without
    the key can neither predict nor collide.

    {b Allocation.}  Neither the state nor any message word is ever
    boxed.  The [int64]-returning functions allocate only their result
    (3 words); {!hash_int_bits} and {!hash_fields} with an output
    buffer allocate nothing.  The [@alloc] test suite pins this for
    {!hash_int64s} on a prebuilt list, for packet fingerprints
    ({!hash_fields}, both ways) and for the adversary's coin
    ({!hash_int_bits}). *)

type key = { k0 : int64; k1 : int64 }
(** A 128-bit key as two 64-bit halves. *)

val key_of_ints : int64 -> int64 -> key
(** Build a key from its two halves. *)

val key_of_string : string -> key
(** Derive a key from arbitrary seed material (FNV expansion); convenient
    for tests and key rings. *)

val hash : key -> string -> int64
(** SipHash-2-4 of a byte string (matches the reference test vectors). *)

val hash_int64s : key -> int64 list -> int64
(** SipHash-2-4 of the little-endian concatenation of the given words;
    used to fingerprint packet identity tuples without building strings. *)

val hash_int : key -> int -> int64
(** [hash_int key x] is [hash_int64s key [Int64.of_int x]], bit for bit
    ([x] sign-extended), without the list or a boxed argument. *)

val hash_int_bits : key -> int -> int
(** [hash_int_bits key x] is
    [Int64.to_int (Int64.shift_right_logical (hash_int key x) 11)], the
    hash's top 53 bits, computed without boxing the hash: the
    adversary's per-packet coin. *)

val hash_fields :
  key -> int -> int -> int -> int -> int -> Bytes.t -> int -> tail:int -> int -> int -> int ->
  int -> Bytes.t -> int -> int64
(** [hash_fields key a b c d e wb woff ~tail t0 t1 t2 t3 out off] is
    {!hash_int64s} of the words [a; b; c; d; e; w] followed by the first
    [tail] of [t0; t1; t2; t3], each int sign-extended as by
    [Int64.of_int], where [w] is read in place from bytes
    [[woff, woff + 8)] of [wb], little-endian.  This is the shape of a
    packet's identity tuple ({!Netsim.Packet.fingerprint}).

    With [out] empty ([Bytes.empty]) the hash is the result, boxed.
    Otherwise it is written native-endian into bytes [[off, off + 8)] of
    [out] (read it back with [Bytes.get_int64_ne]) and the result is
    [0L], a constant: nothing is allocated.  Raises [Invalid_argument]
    unless [0 <= tail <= 4]. *)
