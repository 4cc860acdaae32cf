(** Link-state routing tables (§4.1, §2.1.6).

    Every router derives its forwarding table from the same global view
    via deterministic Dijkstra, so hop-by-hop forwarding is loop-free and
    the path any packet will follow is predictable by any router — the
    property the traffic validation protocols rely on. *)

type t

val compute : Graph.t -> t
(** Build the all-destinations routing state for a topology: one
    {!Dijkstra.iter} search per destination, which settles each
    router's next hop as it settles the router.  Only the next-hop
    table is kept. *)

val graph : t -> Graph.t
(** The topology the tables were computed from. *)

val next_hop : t -> Graph.node -> dst:Graph.node -> Graph.node option
(** The unique deterministic next hop from a router toward a
    destination; [None] if unreachable or already there. *)

val next_hop_id : t -> Graph.node -> dst:Graph.node -> Graph.node
(** Like {!next_hop} but returning [-1] for "no route": a precomputed
    table lookup that allocates nothing — the forwarding plane's
    per-packet path. *)

val cost : t -> Graph.node -> Graph.node -> int option
(** Least path cost between two routers: the cost of the routed path,
    summed hop by hop over the links as they were when the tables were
    computed. *)

val path : t -> src:Graph.node -> dst:Graph.node -> Graph.node list option
(** The hop-by-hop forwarding chain [src; ...; dst] ([Some [src]] when
    [src = dst]); [None] if unreachable. *)

val path_delay : t -> Graph.node list -> float
(** Sum of propagation delays along a chain of adjacent routers.  Raises
    [Not_found] if some consecutive pair is not linked. *)

val all_routed_paths : t -> Graph.node list list
(** The forwarding chain for every ordered pair of distinct, mutually
    reachable routers. *)
