(** FNV-1a 64-bit hash.

    An unkeyed fingerprint used where adversarial resistance is not needed
    (hash-range packet sampling as in Trajectory Sampling / SATS, Bloom
    filter index derivation). For adversarial fingerprints use
    {!Siphash}. *)

val hash_string : string -> int64
(** FNV-1a over the bytes of a string. *)

val hash_int64 : int64 -> int64
(** FNV-1a over the 8 little-endian bytes of an int64. *)

val hash_int : int -> int64
(** [hash_int x] is [hash_int64 (Int64.of_int x)], without boxing the
    argument: only the result is allocated (3 words). *)

val hash_int_into : int -> Bytes.t -> int -> unit
(** [hash_int_into x b off] writes [hash_int x] little-endian into bytes
    [[off, off + 8)] of [b], allocating nothing: a packet's payload
    ({!Netsim.Packet}). *)
