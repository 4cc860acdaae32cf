(** Deterministic shortest paths.

    Forwarding in the protocols relies on every router predicting the path
    a packet will take (§4.1: routers "use a deterministic hash algorithm"
    so paths are predictable).  We obtain the same property with a
    deterministic tie-break: among equal-cost candidates the lowest node
    id wins, so every router computing over the same topology derives the
    same next hops. *)

val unreachable : int
(** Distance value for unreachable nodes ([max_int]). *)

val distances_to_all : Graph.adjacency -> int array array
(** [(distances_to_all a).(dst).(v)] is the least cost from [v] to
    [dst], found by relaxing the predecessor rows: the orientation
    hop-by-hop forwarding needs.  The n searches share one {!Minheap}. *)
