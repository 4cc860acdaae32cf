(** Protocol Π2 (§5.1): complete, accurate, precision 2.

    Every router monitors the (k+2)-path-segments it belongs to (plus
    whole shorter paths).  Each round the routers of a segment reach
    consensus on their signed traffic summaries and every correct router
    evaluates TV pairwise along the segment: a failed pair ⟨ri, ri+1⟩ is
    suspected by all correct routers (strong completeness, Appendix B.2). *)

val family : Topology.Routing.t -> k:int -> Topology.Graph.node list list
(** The segments monitored network-wide (delegates to
    {!Topology.Segments.pi2_family}). *)

val detect_round :
  rt:Topology.Routing.t ->
  k:int ->
  adversary:Rounds.adversary ->
  round:int ->
  unit ->
  Topology.Graph.node list list
(** Run one synchronous round: generate traffic, collect (possibly
    misreported) summaries, evaluate TV pairwise under consensus, and
    return the suspected 2-path-segments.  Every correct router ends the
    round holding exactly this set (the consensus + reliable broadcast of
    Fig 5.1).  TV is {!Validation.strict}, over the default traffic of
    {!Rounds.observe}; the exchange is reliable (Appendix B), so every
    segment is judged every round. *)

val detect :
  rt:Topology.Routing.t ->
  k:int ->
  adversary:Rounds.adversary ->
  rounds:int ->
  unit ->
  Spec.suspicion list
(** Run several rounds and expand the suspicions to every correct router
    (for checking the Appendix B properties). *)

val state_counters : Topology.Routing.t -> k:int -> int array
(** Per-router counter state under the conservation-of-flow summary: one
    counter per monitored segment (§5.1.1). *)
