(** SipHash-2-4: a keyed 64-bit pseudo-random function.

    The dissertation's prototype computes packet fingerprints with
    UHASH/UMAC (§5.3.1, §7.1); UMAC is not available offline, so we
    substitute SipHash-2-4, which provides the same abstract guarantee the
    protocols need — a fast keyed PRF whose outputs an adversary without
    the key can neither predict nor collide.

    {b Allocation.}  The hash functions allocate nothing but their boxed
    [int64] result (3 words): neither the state nor any message word
    is boxed.  The [@alloc] test suite pins this for
    {!hash_int64s} on a prebuilt list, for packet fingerprints
    ({!hash_fields}) and for the adversary's coin ({!hash_int}). *)

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
    ([x] sign-extended), without the list or the [int64] box: one word
    hashed for the cost of its result alone — the adversary's
    per-packet coin. *)

val hash_fields :
  key -> int -> int -> int -> int -> int -> int64 -> tail:int -> int -> int -> int -> int ->
  int64
(** [hash_fields key a b c d e w ~tail t0 t1 t2 t3] is {!hash_int64s} of
    the words [a; b; c; d; e; w] followed by the first [tail] of
    [t0; t1; t2; t3], each int sign-extended as by [Int64.of_int].  This
    is the shape of a packet's identity tuple
    ({!Netsim.Packet.fingerprint}); taking the words as arguments builds
    no list and boxes no word.  Raises [Invalid_argument] unless
    [0 <= tail <= 4]. *)
