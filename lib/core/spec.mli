(** The failure-detector specification of §4.2.2.

    Detectors report suspicions (π, τ): the belief that some router inside
    path-segment π forwarded traffic in a faulty manner during round τ.
    A detector is a-Accurate when every suspicion of a correct router has
    |π| <= a and contains a genuinely faulty router; it is a-FC-Complete
    when every traffic-faulty router is eventually covered by a suspicion
    containing a router fault-connected to it.  These checkers implement
    the definitions against ground truth for the property-based tests of
    Appendix B. *)

type suspicion = {
  segment : Topology.Graph.node list;
  round : int;
  by : Topology.Graph.node;  (** the correct router holding the suspicion *)
}

val precision : suspicion list -> int
(** Longest suspected segment (0 when no suspicions). *)

val accurate :
  faulty:(Topology.Graph.node -> bool) -> a:int -> suspicion list -> (unit, string) result
(** Check a-Accuracy: each suspicion has length <= a and contains a
    faulty router.  [Error] carries the violating suspicion. *)

val fault_cluster :
  Topology.Graph.t -> faulty:(Topology.Graph.node -> bool) -> Topology.Graph.node ->
  Topology.Graph.node list
(** The set of faulty routers fault-connected to a faulty router r: the
    connected component of faulty routers containing r under graph
    adjacency (r itself included).  Empty if r is not faulty. *)

val complete :
  graph:Topology.Graph.t ->
  faulty:(Topology.Graph.node -> bool) ->
  traffic_faulty:Topology.Graph.node list ->
  correct_routers:Topology.Graph.node list ->
  suspicion list ->
  (unit, string) result
(** Check strong FC-Completeness: for every traffic-faulty router r and
    every correct router c, some suspicion held by c overlaps r's fault
    cluster. *)
