(** A network: a topology instantiated in a simulation.

    Wires a {!Topology.Graph.t} into routers and interfaces, installs
    link-state or policy forwarding, and exposes the global event stream
    that the monitoring layer (and the experiment harness) observes. *)

type queue_spec =
  | Droptail of int         (** byte limit for every output queue *)
  | Red of Red.params

type 'kind view = 'kind Probe.view = {
  clock : Sim.fbox;        (** the event's time is [clock.f] (see below) *)
  router : int;            (** the router, or the owner of the queue *)
  mutable next : int;      (** the neighbour; [-1] when the event names none *)
  mutable kind : 'kind;    (** a constant constructor *)
  mutable pkt : Packet.t;  (** the packet the event is about *)
  mutable arg : float;     (** the event's one scalar, [0.] when it has none *)
}
(** One observation, of either layer: both have one shape, a constant
    kind beside the packet.  The network keeps two views per interface
    (see below) and one per router, overwrites the mutable fields at
    each emission
    (one emit path for both layers), and lends it to the probe and to
    every listener in turn (see {!subscribe_iface}).

    A view stores no time of its own: it holds a clock box, and a
    listener reads the event's time as [ev.clock.f] during its callback.
    Every event happens at the current simulation time, the network's
    one clock box, except an interface's arrival-side kinds
    ([Delivered], [Drop_corrupted]): they are stamped with the time the
    packet reached the far end, which its upstream neighbour sees.
    That is up to [jitter_bound] before the clock, because the arrival
    event fires after the receiving router's processing jitter
    ({!Iface.create}); an interface lends them a second view, whose
    clock is a box set to that time.  A consumer that orders events
    by time sorts them: emission order is not time order across these
    kinds.

    A consumer in another module takes the box, not the float: the dev
    profile compiles every module [-opaque], so no call between modules
    is inlined and a float passed to one is boxed per call.

    An interface's view has [router] and [next] fixed to its link's
    ends, and [arg] is always [0.].  A router's view carries what
    {!Router.create} reports: the output neighbour of a malicious drop,
    modify, delay, fabrication or fragmentation ([-1] for the other
    kinds), and as [arg] a [Fragmented] event's fragment count or a
    [Malicious_delay]'s delay in seconds. *)

type iface_event = Iface.event view
(** A queue/link observation. *)

type router_event = Router.event view
(** A router observation. *)

type t

val create :
  ?seed:int ->
  ?queue:queue_spec ->
  ?jitter_bound:float ->
  ?pooling:bool ->
  ?poison:bool ->
  Topology.Graph.t ->
  t
(** Build the network.  Every router gets one output interface per
    outgoing link with the given queue discipline (default
    [Droptail 64000]).  [jitter_bound] is the per-packet processing delay
    upper bound, drawn uniformly (default 300 microseconds; pass 0. for a
    perfectly deterministic forwarding plane); a non-finite bound raises
    [Invalid_argument].  Every router, interface and traffic source runs
    on one event queue ({!sim}) and draws from its one random stream.

    Packets are recycled: a packet returns to the network's freelist
    ({!Pool}) the moment it dies (delivered, dropped, expired) and
    {!make_packet} reuses it, so steady-state traffic allocates no
    packet records.  Observers leave recycling live: listeners, apps
    and the probe only borrow packets (see {!subscribe_iface} and
    {!attach_app}), and the probe's journal copies what it keeps.
    [pooling] selects nothing: only [true] (the default) is accepted,
    and [~pooling:false] raises [Invalid_argument].  [poison] (default
    false) stamps released packets so stale references read
    loudly-wrong data and double releases raise, and makes an emission
    into a view whose listeners are still running raise
    [Invalid_argument] — the debug mode the allocation tests use. *)

val jitter_bound : t -> float
(** The routers' processing-jitter bound given to {!create}. *)

val sim : t -> Sim.t
(** The simulation the network runs on: traffic generators, probes,
    detectors, TCP and the fault injector schedule their work here. *)

val graph : t -> Topology.Graph.t
val router : t -> int -> Router.t
val iface : t -> src:int -> dst:int -> Iface.t option
(** The output interface of the directed link [src -> dst]; [None] when
    there is no such link, including when [src] or [dst] is not a router
    of the network. *)

val use_routing : t -> Topology.Routing.t -> unit
(** Install plain link-state forwarding on every router. *)

val use_policy : t -> Topology.Policy.t -> unit
(** Install policy (segment-excising) forwarding on every router.  Each
    hop is a {!Topology.Policy.next_hop_id} lookup, which allocates
    nothing once the destination's table is built. *)

val use_ecmp : t -> Topology.Ecmp.t -> unit
(** Install deterministic equal-cost multipath forwarding (§7.4.1):
    every router picks among its equal-cost next hops by the shared flow
    hash. *)

(** {2 Listeners}

    Observation is scoped by link and by kind.  A listener declares the
    event kinds it reads when it subscribes ([?kinds], default every
    kind) and receives exactly those, in emission order: the same
    events, in the same order, as an every-kind listener's stream
    filtered to its kinds.  An interface emits an event only when its
    kind is wanted by the probe (every kind), a network-wide iface
    listener, or a listener on its own link — the union of what its
    consumers read; a router likewise emits the union of what the
    probe and the router listeners read.  Every other transition stays
    on the unobserved hot path, so a listener that declares only the
    kinds it reads costs nothing for the rest.

    A listener {e borrows} the event: the record is the interface's
    (or router's) one view, overwritten by the next emission there,
    and its packet may die right after the callback returns and be
    recycled as another packet.  A callback reads what
    it needs during the call — copy fields, take a fingerprint, render
    with {!Probe.describe_iface} — and keeps neither the record nor
    the [Packet.t].  A callback must not make its own interface emit
    again before it returns (e.g. enqueue a packet there from a
    [Transmit_start] listener): that would overwrite the view under
    the listeners still to run, and poison mode raises instead. *)

val subscribe_iface : t -> ?kinds:Iface.kinds -> (iface_event -> unit) -> unit
(** Observe the queue/link events of the given [kinds] (default
    {!Iface.all_kinds}) at every interface in the network: enqueue,
    drops, transmit, deliver.  Turns on emission of those kinds at
    every interface. *)

val subscribe_link :
  t -> ?kinds:Iface.kinds -> src:int -> dst:int -> (iface_event -> unit) -> unit
(** Observe the events of the given [kinds] (default every kind) on the
    directed link [src -> dst] only; only that interface starts emitting
    them.  A callback subscribed to several links sees each event once.
    Raises [Invalid_argument] if the link is absent. *)

val subscribe_router : t -> ?kinds:Router.kinds -> (router_event -> unit) -> unit
(** Observe router-level events of the given [kinds] (default
    {!Router.all_kinds}): malicious actions, TTL expiry, local
    deliveries, ... *)

val set_probe : t -> Probe.t option -> unit
(** Attach (or detach) the telemetry probe: every iface/router event and
    every origination is counted and journaled through it.  With no
    probe attached the per-event overhead is one pointer test.
    Attaching a probe also gives it a fresh always-on {!Stats} collector
    (see {!stats}), which the probe feeds itself.  The journal holds no
    packet, so recycling never changes what it reads. *)

val stats : t -> Stats.t option
(** The probe's always-on time-series collector; [None] when no probe
    is attached. *)

val attach_app : t -> node:int -> (Packet.t -> unit) -> unit
(** Register a local-delivery handler at a node; every handler attached
    to the node sees every packet delivered there.  A handler {e
    borrows} the packet, as a listener does: the router recycles it
    once the node's handlers return, so a handler copies what it needs
    during the call and keeps no [Packet.t].  It may {!originate} a
    reply before it returns. *)

val add_multicast_route :
  t -> router:int -> group:int -> next_hops:int list -> local:bool -> unit
(** Install one hop of a multicast distribution tree (§7.4.3). *)

val pin_flow_path : t -> flow:int -> path:int list -> unit
(** Pin a flow to an explicit router path (the simulator's stand-in for
    source routing, needed by Perlman's multipath robustness, §3.7).
    Pinned hops take precedence over the installed forwarding for that
    flow.  Raises [Invalid_argument] if consecutive path nodes are not
    linked. *)

val fail_link : t -> src:int -> dst:int -> unit
(** Fail the directed link (fail-stop): offered packets are lost until
    {!restore_link}.  Raises [Invalid_argument] if absent. *)

val restore_link : t -> src:int -> dst:int -> unit

val link_up : t -> src:int -> dst:int -> bool
(** Whether the directed link is currently up.  Raises
    [Invalid_argument] if absent. *)

val set_link_corruption : t -> src:int -> dst:int -> float -> unit
(** Give a link a bit-error floor: each packet is damaged in flight with
    this probability (4.2.1's benign corruption losses).  Raises
    [Invalid_argument] if the link is absent. *)

val originate : t -> Packet.t -> unit
(** Hand a locally-generated packet to its source router for
    forwarding.  The network takes it: a packet that dies is recycled,
    so the caller keeps no reference to it. *)

val make_packet :
  t -> src:int -> dst:int -> flow:int -> size:int -> Packet.proto -> Packet.t
(** Mint a data packet originated at [src]: a recycled record when the
    freelist has one, a fresh one otherwise — identical content either
    way (uid from {!Sim.fresh_id}, creation time now, copied into the
    packet's own [created] box, and the payload hashed into the
    packet's own bytes).  A recycled mint allocates nothing.  Traffic generators and the TCP
    and Ping endpoints mint through this so recycling is transparent
    to them. *)

val pool_stats : t -> Pool.stats
(** The freelist's counters. *)

val fresh_flow_id : t -> int
(** Flow identifier from the simulation's id counter. *)

val run : ?until:float -> t -> unit
(** [Sim.run (sim t)]. *)

val events_processed : t -> int
(** Events the simulation has executed. *)

val cpu_time_in_run : t -> float
(** Processor seconds spent inside the event loop. *)
