(** The library's one priority queue: the simulator's event heap, which
    also runs shortest-path searches ([Topology.Dijkstra],
    [Topology.Policy]).  See {!Evheap}. *)

module Event : module type of Evheap
