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
(** Build ECMP state: one {!Dijkstra.iter} search per destination,
    whose distances give every (destination, router)'s ascending
    candidate list, stored once in one flat row of ids with an offset
    per row.  The hash is one
    deterministic integer mixer, shared by every router in the network
    — that is what makes paths predictable (§4.1). *)

val candidates : t -> Graph.node -> dst:Graph.node -> Graph.node list
(** The equal-cost next hops (ascending), empty when unreachable or
    already at the destination.  Raises [Invalid_argument] on a node
    out of range, as do the functions below. *)

val next_hop_id : t -> Graph.node -> dst:Graph.node -> flow:int -> Graph.node
(** The hash-selected next hop for a flow, or [-1] when there is none:
    a read of the stored row that allocates nothing, the per-packet
    path of ECMP forwarding and of {!Core.Qmon}'s predictions. *)

val next_hop : t -> Graph.node -> dst:Graph.node -> flow:int -> Graph.node option
(** {!next_hop_id} as an option. *)

val path : t -> src:Graph.node -> dst:Graph.node -> flow:int -> Graph.node list option
(** The full hop-by-hop path the flow's packets follow. *)

val max_fanout : t -> int
(** The largest number of equal-cost candidates anywhere (1 = the
    topology has no ECMP decisions at all — useful to check a test
    topology actually exercises multipath). *)
