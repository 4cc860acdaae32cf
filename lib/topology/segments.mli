(** Path-segment enumeration (§4.1, §5.1, §5.2).

    An x-path-segment is a sequence of x consecutive routers that is a
    subsequence of a routed path.  Under AdjacentFault(k):

    - Protocol Π2 has each router monitor every (k+2)-segment it belongs
      to, plus every whole routed path shorter than k+2 (both ends
      terminal) that contains it;
    - Protocol Πk+2 has each router monitor every x-segment,
      3 <= x <= k+2, of which it is an end.

    These functions compute the distinct segment families and the |Pr|
    counts and statistics of Figures 5.2 and 5.4; the counts come from
    the same walk as the families, with no segment lists.

    {b Order.}  Both families come from one walk of the next-hop tables
    and list each segment at its first occurrence: routed paths
    src-major, then dst (as {!Routing.all_routed_paths} lists them),
    and within a path by width ascending, then offset ascending.  The
    live deployments number their segments in this order, which orders
    the verdicts they raise at one instant.

    {b The walk.}  Under next-hop routing, a path's windows from router
    x toward d are fixed by (x, d).  The walk marks each (router,
    destination) state it passes and stops a path at the first state
    already marked, after the few routers the path's earlier windows
    still need: n (n - 1) states in all, rather than every hop of every
    routed path.  Only Π2's whole paths shorter than k + 2 depend on
    their source; they are kept from any state.

    {b Deduplication.}  The walk stores each distinct window once, back
    to back in one int array, and finds it again through an
    open-addressed table of (place, hash) int pairs, comparing a window
    whose hash matches in place; no list is built until the family is
    returned.  The table is sized from the 3-windows the degrees allow
    and doubles as it fills; the k = 1 families of the Sprintlink and
    EBONE shapes are found without a doubling. *)

type segment = Graph.node list
(** A path-segment as its router chain (length >= 2). *)

val windows : 'a list -> int -> 'a list list
(** All contiguous sublists of the given length, left to right. *)

val pi2_family : Routing.t -> k:int -> segment list
(** The distinct segments monitored under Protocol Π2 with
    AdjacentFault(k), over all routed paths: each path's (k+2)-windows,
    or the whole path when it has 3 to k+1 routers.  Raises
    [Invalid_argument] if [k < 1]. *)

val pik2_family : Routing.t -> k:int -> segment list
(** The distinct segments monitored under Protocol Πk+2 (all x-segments,
    3 <= x <= k+2, of routed paths).  Raises [Invalid_argument] if
    [k < 1]. *)

val pi2_pr_counts : Routing.t -> k:int -> int array
(** [pi2_pr_counts rt ~k].(r) is |Pr| for router r under Π2: the number
    of distinct monitored segments containing r.  Raises
    [Invalid_argument] if [k < 1]. *)

val pik2_pr_counts : Routing.t -> k:int -> int array
(** |Pr| for router r under Πk+2: the number of distinct monitored
    segments having r as one of their two ends.  Raises
    [Invalid_argument] if [k < 1]. *)

val pr_stats : int array -> float * float * float
(** (max, mean, median) of per-router |Pr| — the three series plotted in
    Figures 5.2 and 5.4. *)
