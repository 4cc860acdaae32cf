(** Policy routing that excises suspected path-segments (§2.4.3, §5.3.1).

    Fatih's response removes a suspected path-segment from the routing
    fabric without removing its routers: "routers update their forwarding
    tables such that no traffic traverses along the suspected path-segment
    anymore", distinguishing flows by where they came from.  We model this
    exactly for segments of length 2 (link removal) and 3 (forbidden
    transitions, the k = 1 case Fatih implements); longer suspected
    segments are handled conservatively by forbidding every interior
    3-window, which excises a superset of the suspected segment.

    Forwarding decisions depend on (previous hop, current router,
    destination) — the simulator-level equivalent of Fatih's
    source-address policy routing.

    Cost: {!compute} takes one flat adjacency snapshot
    ({!Graph.adjacency}), numbers its directed links from the successor
    rows, and does no routing work.  The first query toward a
    destination builds its table: for every link, the least
    policy-respecting cost to the destination that starts with it.  The
    build is a backward Dijkstra over links that relaxes only the
    predecessors of each popped link: O(E·deg) relaxations (each a heap
    push) and one word per directed link per destination.  A relaxation
    looks a transition up in the banned table only when some banned
    transition passes through its middle router.  Every destination's
    search drains the one {!Radixheap} of (cost, link) its [t] keeps, so a
    [t] is not thread-safe.  Once a destination's table
    exists, {!next_hop_id} scans the router's successor row and allocates
    nothing. *)

type t

val compute : Graph.t -> forbidden:Graph.node list list -> t
(** Build policy routing state for a topology with a set of forbidden
    path-segments.  Segments must have length >= 2 and consist of
    adjacent routers of the graph; length-2 segments cut the link (no
    path takes it; the graph itself is left as it is).
    Raises [Invalid_argument] on malformed segments. *)

val next_hop_id : t -> prev:Graph.node -> cur:Graph.node -> dst:Graph.node -> Graph.node
(** Deterministic next hop given where the packet came from, in the
    forwarding plane's int encoding: [prev = -1] for locally originated
    traffic, and [-1] returned when the destination is unreachable under
    the policy or [cur = dst].  Among the successors with the least
    remaining cost the lowest id wins.  Raises [Invalid_argument] when
    [cur] or [dst] is outside [\[0, n)] or [prev] outside [\[-1, n)]. *)

val next_hop :
  t -> prev:Graph.node option -> cur:Graph.node -> dst:Graph.node -> Graph.node option
(** {!next_hop_id} with options: [prev = None] for locally originated
    traffic, [None] for no next hop.  [Some p] with [p] outside
    [\[0, n)] raises [Invalid_argument]. *)

val path : t -> src:Graph.node -> dst:Graph.node -> Graph.node list option
(** Forwarding chain under the policy ([Some [src]] when [src = dst]). *)

val forbidden_transitions : t -> (Graph.node * Graph.node * Graph.node) list
(** The effective set of banned 3-windows after normalization, sorted
    (for inspection and tests). *)

val is_forbidden_path : t -> Graph.node list -> bool
(** Whether a chain traverses a banned window or removed link. *)
