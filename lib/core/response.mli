(** The response engine (§2.4.3, §5.3.1): excise suspected path-segments
    from the routing fabric.

    On an alert the link-state machinery recomputes forwarding after the
    OSPF delay timer, and consecutive recomputations are separated by the
    OSPF hold timer (5 s and 10 s in Zebra, the values Fig 5.7's timeline
    exhibits).  Recomputation installs policy routing that avoids every
    suspected segment while leaving the suspected routers usable on their
    unsuspected paths. *)

type event = {
  time : float;
  forbidden : Topology.Graph.node list list;  (** segments excised so far *)
}

type t

val create : net:Netsim.Net.t -> ?probe:Netsim.Probe.t -> unit -> t
(** Pass [probe] to record a "routing-update" trace instant (listing the
    excised segments' routers) at each installation. *)

val suspect : t -> Topology.Graph.node list -> unit
(** Feed a suspected path-segment (idempotent); schedules a routing
    recomputation respecting the delay/hold timers. *)

val set_on_update : t -> (Topology.Policy.t -> unit) -> unit
(** Callback invoked after each routing installation with the policy just
    installed (Fatih uses it to re-derive its path predictions, as the
    coordinator does on topology change, §5.3.1). *)

val suspected : t -> Topology.Graph.node list list
val updates : t -> event list
(** Routing-table installations, oldest first. *)
