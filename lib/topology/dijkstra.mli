(** Deterministic shortest paths.

    Forwarding in the protocols relies on every router predicting the path
    a packet will take (§4.1: routers "use a deterministic hash algorithm"
    so paths are predictable).  We obtain the same property with a
    deterministic tie-break: among equal-cost candidates the lowest node
    id wins, so every router computing over the same topology derives the
    same next hops. *)

val unreachable : int
(** Distance value for unreachable nodes ([max_int]). *)

val distances : Graph.adjacency -> src:Graph.node -> int array
(** Least cost from [src] to every node, relaxing the successor rows of
    the snapshot.  Raises [Invalid_argument] on an out-of-range node. *)

val distances_to : Graph.adjacency -> dst:Graph.node -> int array
(** Least cost from every node to [dst], relaxing the predecessor rows;
    this is the orientation hop-by-hop forwarding needs. *)
