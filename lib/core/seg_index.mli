(** The per-hop segment index shared by the live Πk+2 deployments
    ({!Fatih} and {!Pi2_live}).

    Both monitor every 3-path-segment of the routed paths and must find,
    for each delivered hop, the segment the hop opens and the one it
    closes on the packet's predicted path (§4.1 predictability).  The
    index resolves that once per (source, destination) per routing
    generation, into integer positions of a per-segment state array, so
    the per-hop path does no list building and no list-keyed lookup. *)

type 'st t

val create : rt:Topology.Routing.t -> (unit -> 'st) -> 'st t
(** Index every 3-segment of [rt]'s routed paths
    ({!Topology.Segments.pik2_family} with [k = 1]), giving each a
    state built by the function.  Segments are numbered in the
    iteration order of a list-keyed hash table filled in family order:
    the order in which the deployments have always judged them, which
    fixes their verdict order. *)

val states : 'st t -> 'st array
(** Per-segment state, by segment number. *)

val segments : 'st t -> Topology.Graph.node list array
(** The segments themselves, by segment number. *)

type route
(** A predicted path p, with the segments its hops open and close. *)

val route : 'st t -> src:Topology.Graph.node -> dst:Topology.Graph.node -> route
(** The route predicted for traffic from [src] to [dst] under the
    current routing generation, computed on first use; unreachable
    destinations get an empty path. *)

val position : route -> u:Topology.Graph.node -> v:Topology.Graph.node -> int
(** The index [i] with p(i) = [u] and p(i+1) = [v], or -1.  A route
    crosses each directed link at most once, so there is at most one.
    Allocates nothing. *)

val opens : route -> int -> int
(** [opens r i] is the number of the segment ⟨p(i), p(i+1), p(i+2)⟩
    that the hop at position [i] enters, or -1 when [i] is -1 or that
    segment is not monitored. *)

val closes : route -> int -> int
(** [closes r i] is the number of ⟨p(i-1), p(i), p(i+1)⟩, the segment
    the hop at position [i] leaves, or -1. *)

val reroute : 'st t -> Topology.Policy.t -> unit
(** Predict paths from the policy from now on: every route is forgotten
    and recomputed on its next use (§5.3.1). *)

val iter_link :
  'st t -> src:Topology.Graph.node -> dst:Topology.Graph.node -> ('st -> unit) -> unit
(** Apply the function to the state of every segment that has the
    directed link [src -> dst] as an edge. *)
