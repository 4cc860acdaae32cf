(** The Abilene backbone (Fig 5.6), the topology of the Fatih experiment.

    Eleven PoPs, fourteen duplex links.  Link propagation delays are
    calibrated so that the default New York <-> Sunnyvale forwarding path
    runs through Denver / Kansas City / Indianapolis / Chicago with a
    one-way latency of 25 ms, and the post-attack detour through
    Los Angeles / Houston / Atlanta / Washington DC has 28 ms — matching
    the 50 ms -> 56 ms RTT shift of Figure 5.7. *)

type pop =
  | Seattle
  | Sunnyvale
  | Los_angeles
  | Denver
  | Kansas_city
  | Houston
  | Indianapolis
  | Atlanta
  | Chicago
  | Washington_dc
  | New_york

val pops : pop array
(** All PoPs; the array index is the node id. *)

val id : pop -> Graph.node
(** Node id of a PoP. *)

val name : Graph.node -> string
(** Human-readable PoP name ("Kan", "Sun", ... as in Fig 5.7). *)

val graph : unit -> Graph.t
(** Fresh Abilene topology.  Every link carries 1.25e6 B/s (10 Mb/s —
    scaled down from the real
    OC-192 backbone to keep simulations cheap; the protocols' behaviour
    depends on relative utilization, not absolute rate). *)

val primary_ny_sun : Graph.node list
(** The expected default New York -> Sunnyvale path. *)

val detour_ny_sun : Graph.node list
(** The expected path after Kansas City's segments are excised. *)
