(** The simulator's event queue, a ladder queue, and the simulator's only: the
    shortest-path searches ([Topology.Dijkstra], [Topology.Policy]) run
    on a monotone radix heap of int pairs of their own
    ([Topology.Radixheap]), with no event time, key, tag or payload to
    carry.  See {!Evheap}. *)

module Event : module type of Evheap
