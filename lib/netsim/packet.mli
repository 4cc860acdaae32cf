(** Packets.

    A packet's identity for traffic-validation purposes is its invariant
    content: everything except the TTL, which routers rewrite hop by hop
    and the fingerprint must exclude (§7.4.2).

    {b One fingerprint per packet and key.}  A packet keeps its last
    fingerprint and the key it was taken under, so the collectors along
    its path hash it once: a π2 run takes 74,170 distinct (packet, key)
    fingerprints where it asked for 202,699.  The record is [private]:
    outside this module its fields are read-only, and every writer of a
    fingerprinted field ({!reinit}, {!set_payload}, {!xor_payload},
    {!poison}) drops the cached fingerprint; {!set_ttl} and
    {!set_trace} write the two fields a fingerprint excludes. *)

type proto =
  | Udp
  | Tcp of tcp_header
  | Ping of int  (** echo request, sequence number *)
  | Pong of int  (** echo reply *)

and tcp_header = {
  seq : int;        (** first payload byte number carried, -1 for pure ACK *)
  ack : int;        (** cumulative ACK (next byte expected), -1 if unset *)
  syn : bool;
  fin : bool;
}

type body
(** The packet's own bytes: its payload and its cached fingerprint.
    Abstract, so only this module writes them. *)

type t = private {
  mutable uid : int;   (** globally unique id, part of the packet content *)
  mutable src : int;   (** originating router *)
  mutable dst : int;   (** destination router *)
  mutable flow : int;  (** flow identifier *)
  mutable size : int;  (** total bytes on the wire *)
  mutable proto : proto;
  mutable ttl : int;   (** rewritten per hop; excluded from fingerprints *)
  body : body;
      (** the payload: 8 bytes standing in for the packet's data, read
          and written through {!payload}, {!set_payload} and
          {!xor_payload} (little-endian), then 8 bytes of cached
          fingerprint.  They belong to the record: the pool refills
          them in place when it recycles the packet, a {!clone} gets
          its own copy, and a fingerprint reads the payload where it
          lies and writes its digest beside it, so nothing is boxed on
          the hop path *)
  mutable fp_key : Crypto_sim.Siphash.key;
      (** the key the cached fingerprint was taken under (compared
          physically); a private sentinel when there is none *)
  created : Sim.fbox;
      (** origination time, [created.f]: the packet's own flat box,
          refilled when the pool recycles the record, so a time series
          reads it in place ({!Telemetry.Timeseries.record}) *)
  mutable trace : int; (** telemetry trace id (0 = unsampled); pure
                           observability metadata, excluded from
                           fingerprints like the TTL *)
  spans : spans;  (** the probe's pending span windows and the visit's arrival *)
}

and spans = {
  mutable q_start : float;
      (** enqueue instant of the pending queue span on the packet's
          current edge; [-1] = none.  A packet sits in at most one queue
          at a time, so the field replaces a (uid, router, next)-keyed
          table on the tracing fast path. *)
  mutable tx_start : float;
      (** transmit-start instant of the pending transit span; [-1] =
          none. *)
  mutable arrive : float;
      (** when the packet reached the router it is visiting, if that
          visit's processing jitter is already spent, [-1] otherwise.
          The event that hands such a packet to its router fires at
          [arrive + j] (an arrival from a link, or a CBR/Poisson tick
          with its [created] time as [arrive]), so the router enqueues
          it at once; any other packet it forwards waits a post-jitter
          event ({!Router.create}).  An interface's [Delivered] and
          [Drop_corrupted] events are stamped with it. *)
}
(** Per-hop timing scratch, excluded from fingerprints: the probe's
    span windows and the current visit's arrival time.  A float-only
    record, so storing a time into it boxes nothing. *)

val make :
  sim:Sim.t ->
  src:int -> dst:int -> flow:int -> size:int -> ?ttl:int -> proto -> t
(** Allocate a packet with a fresh uid ({!Sim.fresh_id}) and a
    pseudo-random payload ([Fnv.hash_int uid]) (so applications' packets are
    indistinguishable on the wire).  Raises [Invalid_argument] for a
    non-positive size. *)

val make_at :
  clock:Sim.fbox ->
  uid:int -> src:int -> dst:int -> flow:int -> size:int -> ?ttl:int ->
  proto -> t
(** {!make} with the origination time ([clock.f], copied into the
    packet's own box) and uid given explicitly — the variant the packet
    {!Pool} uses, with no dependency on a [Sim.t]. *)

val reinit :
  t ->
  clock:Sim.fbox ->
  uid:int -> src:int -> dst:int -> flow:int -> size:int -> proto -> unit
(** Overwrite every field of a dead packet so the record can be reused as
    if freshly {!make}d — the {!Pool} recycling step.  [clock.f] is
    copied into [created], the payload is hashed into [body] and the
    span windows are reset in place, so nothing is allocated.  All
    identity fields are mutable only for this purpose: live packets
    must never be reinitialized.  Raises [Invalid_argument] for a
    non-positive size. *)

val clone : t -> t
(** An independent copy carrying the same identity (uid, payload, header)
    — multicast duplication (§7.4.3): the copies are the same packet to
    any fingerprint, but mutate (TTL, payload, span windows)
    independently per branch: [body], [created] and [spans] are copied,
    not shared. *)

val set_ttl : t -> int -> unit
(** Rewrite the TTL (a transit hop spends one).  It is no part of the
    fingerprint, so the cached one stands. *)

val set_trace : t -> int -> unit
(** Stamp the telemetry trace id, also outside the fingerprint. *)

val poison : t -> uid:int -> unit
(** The {!Pool}'s poison stamp on a released packet: [uid], a zero size
    and TTL, and no cached fingerprint. *)

val payload : t -> int64
(** The payload as one word (boxed: for cold readers). *)

val set_payload : t -> int64 -> unit
(** Overwrite the payload, dropping the cached fingerprint. *)

val xor_payload : t -> int64 -> unit
(** [xor_payload p mask] flips the payload's bits under [mask] in place,
    allocating nothing: a modification attack ({!Router.Modify}).  The
    cached fingerprint is dropped. *)

val fingerprint : Crypto_sim.Siphash.key -> t -> int64
(** Keyed fingerprint of the packet's invariant content (uid, addresses,
    flow, size, protocol header, payload — not the TTL).  Taken once per
    content and key and then read from the packet's cache.  Allocates
    only its boxed result (3 words). *)

val fingerprint_into : Crypto_sim.Siphash.key -> t -> Bytes.t -> int -> unit
(** [fingerprint_into key p buf off] writes [fingerprint key p]
    native-endian into bytes [[off, off + 8)] of [buf] (read it back
    with [Bytes.get_int64_ne]), allocating nothing: the hop path's
    form.  The buffer is the caller's, so concurrent simulations share
    no scratch.  Raises [Invalid_argument] if the 8 bytes are not within
    [buf]. *)

val is_syn : t -> bool
(** True for TCP SYN segments (the target of attack 4 / attack 5). *)
