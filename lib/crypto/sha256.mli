(** SHA-256 (FIPS 180-4) and HMAC-SHA-256 (RFC 2104), tuned for the
    per-packet hot path.

    §2.1.5 lists one-way hash functions (MD5, SHA-1) and MACs (HMAC) as
    the cryptographic toolbox of the detection protocols.  SipHash
    ({!Siphash}) is the fast per-packet fingerprint; this module provides
    the collision-resistant hash used where 64 bits are not enough — key
    derivation, summary digests for signatures, and the HMAC
    construction.

    The implementation works on native 63-bit [int]s (no boxed [Int32]
    arithmetic) and exposes a streaming {!init}/{!update}/{!final}
    interface, so large messages are hashed without a padded copy and
    HMAC keys can be expanded once into reusable ipad/opad midstates
    ({!hmac_key}). *)

(** {1 One-shot} *)

val digest : string -> string
(** Raw 32-byte SHA-256 digest. *)

val digest_hex : string -> string
(** Lowercase hex rendering of {!digest} (64 characters). *)

val digest64 : string -> int64
(** The first 8 digest bytes as a big-endian int64 — a convenient
    truncated form for summary digests. *)

val block_size : int
(** The SHA-256 block size in bytes (64). *)

(** {1 Streaming} *)

type ctx
(** An in-progress hash.  Not thread-safe; one ctx per digest. *)

val init : unit -> ctx
(** Fresh context (empty message). *)

val update : ?off:int -> ?len:int -> ctx -> string -> unit
(** Absorb [len] bytes of [s] starting at [off] (default: all of [s]).
    The only copying is of sub-block tails into the 64-byte block
    buffer.  Raises [Invalid_argument] on an out-of-range substring. *)

val final : ctx -> string
(** Pad, run the last compression and return the 32-byte digest.  The
    context must not be reused afterwards. *)

(** {1 HMAC} *)

type hmac_key
(** A key expanded into its ipad/opad compression midstates.  Expanding
    once and reusing drops the per-message HMAC cost to one compression
    pass over the payload plus the fixed finalization blocks —
    {!Keyring} caches these per router pair. *)

val hmac_key : key:string -> hmac_key
(** Expand a key (of any length; keys longer than {!block_size} are
    hashed first, per RFC 2104). *)

val hmac_with : hmac_key -> string -> string
(** Raw 32-byte HMAC-SHA-256 tag under a precomputed key. *)

val hmac64 : hmac_key -> string -> int64
(** First 8 tag bytes as a big-endian int64 — the truncated per-packet
    MAC used by the traffic-validation protocols. *)

val hmac : key:string -> string -> string
(** One-shot [hmac_with (hmac_key ~key)]. *)

val hmac_hex : key:string -> string -> string
