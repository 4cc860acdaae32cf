(** Equal-cost multipath forwarding (§7.4.1).

    Link-state networks balance load over equal-cost paths.  The
    protocols survive this because real routers pick among equal-cost
    next hops with a {e deterministic} hash of the flow identity (Cisco
    CEF, Juniper IP ASIC), so any router that knows the topology and the
    hash function can still predict a packet's path.  This module
    implements that scheme: among the neighbours on shortest paths
    toward the destination, the choice is keyed on
    (router, destination, flow). *)

type t

val compute : Graph.t -> t
(** Build ECMP state.  The hash is one deterministic integer mixer,
    shared by every router in the network — that is what makes paths
    predictable (§4.1). *)

val candidates : t -> Graph.node -> dst:Graph.node -> Graph.node list
(** The equal-cost next hops (ascending), empty when unreachable or
    already at the destination. *)

val next_hop : t -> Graph.node -> dst:Graph.node -> flow:int -> Graph.node option
(** The hash-selected next hop for a flow. *)

val path : t -> src:Graph.node -> dst:Graph.node -> flow:int -> Graph.node list option
(** The full hop-by-hop path the flow's packets follow. *)

val max_fanout : t -> int
(** The largest number of equal-cost candidates anywhere (1 = the
    topology has no ECMP decisions at all — useful to check a test
    topology actually exercises multipath). *)
