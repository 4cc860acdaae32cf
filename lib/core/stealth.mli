(** Stealth probing (§3.8): end-to-end availability checks a compromised
    router cannot selectively spare.

    Naive active probing fails against a discriminating attacker: if
    probes are recognizable (different protocol, address, or size), the
    router forwards them faithfully while dropping the data around them.
    Stealth probing tunnels the probes inside the data stream: same flow
    identifiers, same sizes, payloads that only the keyed endpoints can
    tell from data.  A router that wants to hurt the data stream
    necessarily hurts the probes, so the probe loss rate tracks the data
    loss rate.

    The detector only establishes {e gross path availability} — no
    localization (precision = path length), which is the design-space
    cost the dissertation assigns it. *)

type t

val start :
  net:Netsim.Net.t ->
  src:int ->
  dst:int ->
  flow:int ->
  key:Crypto_sim.Siphash.key ->
  ?interval:float ->
  start:float ->
  stop:float ->
  unit ->
  t
(** Begin probing inside flow [flow] every [interval] seconds (default
    0.5 s) with 1000 B probes (use the victim data flow's id, and
    1000 B data packets, so probes are indistinguishable).  The responder at
    [dst] recognizes probes by their keyed payload MAC and answers with
    an equally disguised reply.  Raises [Invalid_argument] unless
    [interval] is positive and finite. *)

val sent : t -> int
val answered : t -> int

val loss_rate : t -> float
(** Fraction of probes not (yet) answered; read after the run settles. *)

val available : t -> threshold:float -> bool
(** The §3.8 verdict: path considered available iff the probe loss rate
    is at most [threshold]. *)
