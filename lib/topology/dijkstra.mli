(** Deterministic shortest paths.

    Forwarding in the protocols relies on every router predicting the path
    a packet will take (§4.1: routers "use a deterministic hash algorithm"
    so paths are predictable).  We obtain the same property with a
    deterministic tie-break: among equal-cost candidates the lowest node
    id wins, so every router computing over the same topology derives the
    same next hops.

    {b Cost.}  The n searches share one {!Radixheap}, which they read
    a level of equal distance at a time.  A search scans each router's
    predecessor row once, when the router settles, and pushes a router
    only when its distance falls, at most once per link into it.  A
    pushed entry moves down the heap's buckets at most once per bit of
    the largest distance, at most n C for the largest link cost C, so a
    search costs O(E log (n C)); with equal costs (Sprintlink, EBONE,
    grids, rings) each level's bucket is promoted whole and no entry
    moves: O(n + E), a breadth-first search's bound.  Memory does not
    depend on C. *)

val unreachable : int
(** Distance value for unreachable nodes ([max_int]). *)

val iter : Graph.adjacency -> (Graph.node -> dist:int array -> next:int array -> unit) -> unit
(** [iter a f] searches toward each destination [d] in ascending order
    and calls [f d ~dist ~next]: [dist.(v)] is the least cost from [v]
    to [d] ({!unreachable} when there is no path), and [next.(v)] the
    lowest-id successor [w] of [v] with
    [cost (v, w) + dist.(w) = dist.(v)], or [-1] when [v = d] or [d] is
    unreachable.  [next] is a fresh row the caller may keep; [dist] is
    the one row every search reuses, valid only during the call. *)
