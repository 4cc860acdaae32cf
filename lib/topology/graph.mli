(** Network graphs: routers interconnected by directional point-to-point
    links (dissertation §4.1).

    Nodes are dense integer ids [0 .. n-1].  Links are directed and carry
    the attributes the simulator and the protocols need: a routing cost,
    a bandwidth and a propagation delay.  Wired duplex links are added as
    two directed links. *)

type node = int

type link = {
  src : node;
  dst : node;
  cost : int;        (** link-state routing metric, must be positive *)
  bw : float;        (** bandwidth in bytes/second *)
  delay : float;     (** propagation delay in seconds *)
}

type t

val create : n:int -> t
(** Graph over nodes [0 .. n-1] with no links. *)

val size : t -> int
(** Number of nodes. *)

val add_link : t -> ?cost:int -> ?bw:float -> ?delay:float -> node -> node -> unit
(** Add the directed link [src -> dst].  Defaults: cost 1, bandwidth
    1.25e6 B/s (10 Mb/s), delay 1 ms.  Replaces an existing link between
    the same pair.  Raises [Invalid_argument] on self-loops, out-of-range
    nodes or non-positive cost. *)

val add_duplex : t -> ?cost:int -> ?bw:float -> ?delay:float -> node -> node -> unit
(** Add both directions with identical attributes. *)

val link : t -> node -> node -> link option
(** The link [src -> dst] if present. *)

val link_exn : t -> node -> node -> link
(** Like {!link} but raises [Not_found]. *)

val out_neighbors : t -> node -> node list
(** Successors of a node, in ascending id order (deterministic routing
    tie-breaks depend on this order). *)

type adjacency = {
  succ : node array array;      (** successors of each node, ascending *)
  succ_cost : int array array;  (** [succ_cost.(v).(i)]: cost of [v -> succ.(v).(i)] *)
  pred : node array array;      (** predecessors of each node, ascending *)
  pred_cost : int array array;  (** [pred_cost.(v).(i)]: cost of [pred.(v).(i) -> v] *)
}
(** A flat snapshot of the links for the route computations: scanning a
    row allocates nothing, and the ascending order is the deterministic
    tie-break order of {!out_neighbors}. *)

val adjacency : t -> adjacency
(** Snapshot of the current links, O(n + E log deg).  Later
    {!add_link}/{!remove_link} calls do not change it. *)

val links : t -> link list
(** Every directed link. *)

val link_count : t -> int
(** Number of directed links. *)

val duplex_link_count : t -> int
(** Number of node pairs connected in both directions. *)

val out_degree : t -> node -> int

val degrees : t -> int array
(** Out-degree of every node. *)

val is_connected : t -> bool
(** Whether every node reaches every other (directed reachability from
    node 0 and to node 0). Vacuously true for n <= 1. *)

val copy : t -> t
(** Independent deep copy. *)

val remove_link : t -> node -> node -> unit
(** Remove the directed link if present (used by response engines and
    link-failure tests). *)

val fold_links : t -> init:'a -> f:('a -> link -> 'a) -> 'a
