(** Simulated signing keys (§2.1.5).

    The protocols assume "the administrative ability to assign and
    distribute shared keys or a public key infrastructure".  Inside the
    simulation boundary we model that infrastructure directly: a keyring
    deterministically derives one SipHash signing key per router and
    exposes sign/verify over word lists.  Unforgeability holds by
    construction because adversary code in this codebase can only
    produce signatures through {!sign_words} with its own router id —
    the same abstract guarantee a real PKI provides to the protocol
    layer. *)

type t

type signature = private int64
(** An authentication tag binding a message to a signer id. *)

val create : ?seed:string -> n:int -> unit -> t
(** Keyring for routers with ids [0 .. n-1].  The [seed] makes key
    material deterministic for reproducible runs. *)

val sign_words : t -> signer:int -> int64 list -> signature
(** The signature of [signer] over a word list (packet summaries).
    Raises [Invalid_argument] on an out-of-range signer. *)

val verify_words : t -> signer:int -> int64 list -> signature -> bool
(** Check a signature against the claimed signer. *)

val forge_attempt : signature
(** A constant bogus tag, handy for tests exercising the reject path. *)
