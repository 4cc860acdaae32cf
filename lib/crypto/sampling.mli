(** Hash-range packet sampling (§2.4.1, Trajectory Sampling / SATS;
    §5.2.1 subsampling for Protocol Πk+2).

    Two routers that agree on a keyed hash function and a hash range
    observe exactly the same pseudo-random subset of packets without
    exchanging per-packet state.  Intermediate routers that do not know
    the key cannot tell which packets are monitored. *)

type t

val create : key:Siphash.key -> fraction:float -> t
(** Sampler selecting approximately [fraction] of packets
    (clamped to [0, 1]). *)

val selects : t -> int64 -> bool
(** [selects t fp] decides membership of a packet fingerprint in the
    sampled range; deterministic in (key, fraction, fp). *)
