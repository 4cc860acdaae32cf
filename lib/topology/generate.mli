(** Synthetic ISP-like topologies (substitute for the Rocketfuel data).

    Figures 5.2 and 5.4 were measured on the Rocketfuel maps of Sprintlink
    (315 routers, 972 duplex links, mean degree 6.17, max 45) and EBONE
    (87 routers, 161 links, mean degree 3.70, max 11).  Those measured
    maps are not available offline; the figures measure a purely
    graph-structural quantity, so we generate degree-calibrated
    preferential-attachment graphs with the same node count, link count
    and degree profile (see DESIGN.md). *)

val ispish :
  ?seed:int -> n:int -> duplex_links:int -> max_degree:int -> unit -> Graph.t
(** A connected graph with [n] nodes and exactly [duplex_links] duplex
    links (2x directed links), grown by preferential attachment with a
    degree cap.  Deterministic for a given [seed].  Tracks adjacency in
    an n×n byte matrix while it grows (n² bytes).  Raises
    [Invalid_argument] if the parameters are infeasible
    ([duplex_links < n - 1] or [duplex_links > n * max_degree / 2]). *)

val sprintlink_like : ?seed:int -> unit -> Graph.t
(** 315 nodes / 972 duplex links / degree cap 45 — the Sprintlink shape. *)

val ebone_like : unit -> Graph.t
(** 87 nodes / 161 duplex links / degree cap 11 — the EBONE shape. *)

val waxman : ?seed:int -> n:int -> unit -> Graph.t
(** Waxman random geometric graph: nodes on the unit square, link
    probability alpha * exp(-d / (beta * sqrt 2)) with alpha = 0.6 and
    beta = 0.35; connected by
    construction (a random spanning chain is added first).  The classic
    internet-topology alternative to preferential attachment, used for
    generator diversity in property tests. *)

val line : n:int -> Graph.t
(** A duplex chain 0 - 1 - ... - n-1; the fixed-path setting used by
    single-path protocols and many unit tests. *)

val ring : n:int -> Graph.t
(** A duplex cycle; the smallest topology with path diversity. *)

val grid : rows:int -> cols:int -> Graph.t
(** A duplex mesh with rows*cols nodes; rich path diversity for
    property tests. *)
