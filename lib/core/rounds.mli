(** The abstract synchronous round engine for Protocol Π2 / Πk+2.

    The protocols are specified over rounds: every router collects
    info(r, π, τ) for each monitored segment, the summaries are exchanged
    (consensus for Π2, end-to-end exchange for Πk+2), and TV is
    evaluated.  This engine computes ground-truth summaries from
    synthetic per-path traffic and an adversary (traffic-faulty actions
    plus protocol-faulty misreporting), at the abstraction level at which
    the dissertation states and proves the protocols (Appendix B).  The
    packet-level, timing-accurate counterpart lives in {!Fatih}. *)

type action = Pass | Drop | Modify

type adversary = {
  faulty : Topology.Graph.node list;
      (** the compromised routers (traffic- and/or protocol-faulty) *)
  traffic_action : router:Topology.Graph.node -> fp:int64 -> action;
      (** what a compromised router does to each transit packet; must
          return [Pass] for non-faulty routers (enforced) *)
  misreport :
    router:Topology.Graph.node -> pos:int -> truth:Summary.t array -> Summary.t;
      (** what a protocol-faulty router reports as info(r, π, τ) when the
          true per-position summaries of the segment are [truth] and it
          sits at position [pos]; truthful behaviour returns
          [truth.(pos)] *)
  blocks_exchange : Topology.Graph.node -> bool;
      (** whether the router discards Πk+2 end-to-end exchanges passing
          through it *)
}

val passive : Topology.Graph.node list -> adversary
(** Compromised routers that do nothing (baseline). *)

val dropper :
  ?fraction:float -> ?seed:int -> Topology.Graph.node list -> adversary
(** Traffic-faulty adversary: each compromised router drops the given
    fraction of transit packets (default 1.0), reports truthfully. *)

val modifier : Topology.Graph.node list -> adversary
(** Each compromised router rewrites every transit packet. *)

val hider : adversary -> adversary
(** Lift a traffic-faulty adversary into one whose routers also misreport
    to conceal their drops: a compromised router at position [pos] claims
    to have forwarded exactly what its upstream neighbour sent
    ([truth.(pos - 1)]), pushing the visible discrepancy onto the
    boundary with the first correct downstream router.  At a segment's
    closing position this is a no-op: the closing terminal's truth is
    already what it received, [truth.(last - 1)]. *)

type observation = {
  round : int;
  (* Per monitored segment, the true per-position summaries: entry i is
     what the i-th router of the segment forwarded along it, except the
     last entry, which is what the closing terminal received from the
     segment (what the router before it forwarded). *)
  truth : (Topology.Graph.node list * Summary.t array) list;
  dropped_by : (Topology.Graph.node * int) list;
      (** packets each router dropped or modified this round *)
}

val observe :
  rt:Topology.Routing.t ->
  segments:Topology.Graph.node list list ->
  adversary:adversary ->
  ?packets_per_path:int ->
  round:int ->
  unit ->
  observation
(** Build ground truth for one round: [packets_per_path] packets (default
    20) traverse every routed path; compromised routers act on transit
    packets; content summaries are accumulated for every monitored
    segment. *)

val adjacent_fault_bound : rt:Topology.Routing.t -> faulty:Topology.Graph.node list -> int
(** The smallest k such that AdjacentFault(k) holds: the longest run of
    consecutive compromised routers over all routed paths (0 when no
    compromised router lies on any path). *)

val correct_routers :
  Topology.Graph.t -> faulty:Topology.Graph.node list -> Topology.Graph.node list
