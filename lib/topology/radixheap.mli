(** A monotone priority queue of [(key, value)] int pairs, read a level
    at a time: a radix heap with one bucket per bit of the key, the
    queue of the shortest-path searches ({!Dijkstra}, {!Policy}).

    Keys are non-negative ints, and no key pushed may be below {!last},
    the key of the level being read: a search with positive link costs
    pushes only keys above the one it is settling.  Under that rule each
    level holds every entry of the least key exactly, whatever the keys'
    size, and levels come in ascending key order.  Memory is 64 rows of
    (key, value) pairs, each at most twice as long as the most entries
    held at once, or the room asked for at creation: it does not grow
    with the keys.  An
    entry only ever moves to a lower bucket, so it moves at most once
    per bit of the largest key; when every key in the bucket that
    becomes the next level is equal, as in a unit-cost search, that
    bucket trades rows with the level and no entry moves.
    A push allocates nothing beyond the rows' doubling, and the heap is
    drained and reused by the next search.  A level lists its entries
    in no promised order: the searches derive their next hops from the
    distances and router ids alone. *)

type t

val create : int -> t
(** An empty heap whose buckets each have room for that many entries
    once first used, before they grow; {!last} is 0. *)

val push : t -> int -> int -> unit
(** [push t key value].  [key] must be at least {!last}.  An entry with
    key {!last} pushed while a level is read comes in the next level. *)

val next_level : t -> int
(** Drop the level just read and make the entries of least key the
    level: set {!last} to their key and return how many there are.  On
    an empty heap return 0 and reset {!last} to 0, so the next search
    may push any non-negative key. *)

val level : t -> int array
(** The level's entries side by side: entry j's value at 2 j + 1 (its
    key, {!last}, at 2 j), for j below the count {!next_level}
    returned.  Valid until the next {!next_level}. *)

val last : t -> int
(** The key of the level being read (0 before any, and after the heap
    ran empty). *)
