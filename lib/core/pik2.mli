(** Protocol Πk+2 (§5.2): complete, accurate, precision k+2.

    Only the two end routers of each monitored x-segment (3 <= x <= k+2)
    collect and exchange summaries, through the segment itself, within a
    timeout.  A failed exchange or a failed TV makes both correct ends
    suspect the whole segment and announce it by reliable broadcast —
    far cheaper than Π2 (no consensus, Pr bounded by N) at the price of
    precision k+2 (Appendix B.3). *)

val family : Topology.Routing.t -> k:int -> Topology.Graph.node list list

val detect_round :
  rt:Topology.Routing.t ->
  k:int ->
  adversary:Rounds.adversary ->
  ?sampling:Crypto_sim.Sampling.t ->
  ?packets_per_path:int ->
  round:int ->
  unit ->
  Topology.Graph.node list list
(** One synchronous round; returns the suspected segments (each of length
    <= k+2).  [sampling] restricts validation to a keyed hash-range
    subsample — the §5.2.1 overhead reduction, sound because
    intermediate routers cannot tell which packets are sampled;
    [packets_per_path] is passed to {!Rounds.observe}.  TV is
    {!Validation.strict}.  The exchange is reliable unless the
    adversary [blocks_exchange], and a blocked segment is suspected. *)

val detect :
  rt:Topology.Routing.t ->
  k:int ->
  adversary:Rounds.adversary ->
  rounds:int ->
  unit ->
  Spec.suspicion list
(** Multi-round run expanded per correct router, as in {!Pi2.detect}. *)

val state_counters : Topology.Routing.t -> k:int -> int array
(** Per-router counters under conservation of flow: two per monitored
    segment, one per direction (§5.2.1). *)
