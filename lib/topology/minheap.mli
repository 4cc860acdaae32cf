(** A binary min-heap of [(cost, value)] int pairs, held in two parallel
    int arrays: the priority queue of the shortest-path searches
    ({!Dijkstra}, {!Policy}).  A push or a pop allocates nothing beyond
    the arrays' amortized doubling, and the heap can be drained and
    reused by the next search.  Equal costs pop in no promised order:
    the searches derive their next hops from the distances alone. *)

type t

val create : int -> t
(** An empty heap with room for that many entries before it grows. *)

val is_empty : t -> bool

val push : t -> int -> int -> unit
(** [push t cost value]. *)

val top_cost : t -> int
(** The least cost held.  Unspecified on an empty heap. *)

val top_value : t -> int
(** The value pushed with {!top_cost}.  Unspecified on an empty heap. *)

val pop : t -> unit
(** Drop the top entry.  Unspecified on an empty heap. *)
