(** Simulated key distribution (§2.1.5).

    The protocols assume "the administrative ability to assign and
    distribute shared keys or a public key infrastructure".  Inside the
    simulation boundary we model that infrastructure directly: a keyring
    deterministically derives (a) a pairwise symmetric key for every pair
    of routers and (b) a per-router signing key, and exposes sign/verify
    operations.  Unforgeability holds by construction because adversary
    code in this codebase can only produce signatures through [sign] with
    its own router id — the same abstract guarantee a real PKI provides
    to the protocol layer. *)

type t

type signature = private int64
(** An authentication tag binding a message to a signer id. *)

val create : ?seed:string -> n:int -> unit -> t
(** Keyring for routers with ids [0 .. n-1].  The [seed] makes key
    material deterministic for reproducible runs. *)

val size : t -> int
(** Number of routers the ring was created for. *)

val pairwise : t -> int -> int -> Siphash.key
(** Symmetric key shared by two routers; order-independent
    ([pairwise t a b = pairwise t b a]). Raises [Invalid_argument] on
    out-of-range ids.  Derived keys are cached, so repeated lookups on
    the packet path cost a hash-table probe, not key expansion. *)

val sign : t -> signer:int -> string -> signature
(** Produce the signature of [signer] over a message. *)

val verify : t -> signer:int -> string -> signature -> bool
(** Check a signature against the claimed signer. *)

val sign_words : t -> signer:int -> int64 list -> signature
(** Like {!sign} but over a word list (packet summaries). *)

val verify_words : t -> signer:int -> int64 list -> signature -> bool

val mac : t -> int -> int -> string -> string
(** [mac t a b msg] is the 32-byte HMAC-SHA-256 tag over [msg] under the
    pairwise key of routers [a] and [b] (order-independent).  The
    ipad/opad midstates are expanded once per pair and cached, so the
    per-packet cost is one compression pass over the payload. *)

val mac64 : t -> int -> int -> string -> int64
(** First 8 bytes of {!mac} as a big-endian int64 — the truncated
    per-packet MAC form, computed without allocating the full tag. *)

val verify_mac : t -> int -> int -> string -> string -> bool
(** Check a {!mac} tag. *)

val forge_attempt : signature
(** A constant bogus tag, handy for tests exercising the reject path. *)
