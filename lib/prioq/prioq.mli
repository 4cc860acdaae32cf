(** A mutable binary min-heap keyed by a float priority.

    Used by the Dijkstra implementations ([Topology.Dijkstra],
    [Topology.Policy]; priority = path cost).  Ties are broken by
    insertion order.  The simulator's event queue is the specialized
    {!Event} heap.

    Storage is flat parallel arrays (an unboxed float array for
    priorities, an int array for tie-break keys and a value array), so
    pushing an element performs no per-element allocation.  A popped
    element's slot is scrubbed, so the heap never keeps a popped value
    reachable.

    Heaps are not thread-safe. *)

type 'a t

val create : unit -> 'a t
(** Empty heap. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> 'a -> unit
(** Insert an element; ties with equal priority pop in insertion order. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element; [None] when empty.
    Equal priorities come out in insertion order. *)

module Event : module type of Evheap
(** The simulator's flat event heap — same parallel-array design,
    specialized to tagged event descriptors with a non-allocating
    cursor pop; see {!Evheap}. *)
