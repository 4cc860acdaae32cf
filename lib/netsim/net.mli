(** A network: a topology instantiated in a simulation.

    Wires a {!Topology.Graph.t} into routers and interfaces, installs
    link-state or policy forwarding, and exposes the global event stream
    that the monitoring layer (and the experiment harness) observes. *)

type queue_spec =
  | Droptail of int         (** byte limit for every output queue *)
  | Red of Red.params

type iface_event = Probe.iface_record = {
  time : float;
  router : int;            (** owner of the queue *)
  next : int;              (** neighbour the queue feeds *)
  kind : Iface.event;
}
(** The probe's record: each observed event is built once, journaled by
    the probe and handed to every listener. *)

type router_event = Probe.router_record = {
  time : float;
  router : int;
  kind : Router.event;
}

type t

val create :
  ?seed:int ->
  ?queue:queue_spec ->
  ?jitter_bound:float ->
  ?shards:int ->
  ?epoch:float ->
  ?pooling:bool ->
  ?poison:bool ->
  Topology.Graph.t ->
  t
(** Build the network.  Every router gets one output interface per
    outgoing link with the given queue discipline (default
    [Droptail 64000]).  [jitter_bound] is the per-packet processing delay
    upper bound, drawn uniformly (default 300 microseconds; pass 0. for a
    perfectly deterministic forwarding plane); a non-finite bound raises
    [Invalid_argument].

    [shards] selects the engine: absent or [0] runs the classic
    single-heap engine, byte-for-byte as before; [k >= 1] runs the
    conservative-synchronization sharded engine ({!Shard}) with the
    graph partitioned into [k] regions, one domain per region.  Sharded
    output is byte-identical for every [k >= 1] (verdicts, journal,
    trace), but not to the classic engine: randomness moves from the
    single simulation stream to per-entity streams so that no draw
    depends on cross-shard interleaving.  [epoch] is the sharded
    engine's control-plane quantum in seconds (default 0.1): detectors,
    TCP endpoints and observation delivery run at epoch barriers.
    Raises [Invalid_argument] for more shards than routers or a
    zero-latency cross-shard link.

    [pooling] (default false) turns on packet recycling: dead packets
    return to a per-shard freelist ({!Pool}) and {!make_packet} reuses
    them, so steady-state traffic allocates no packet records.  The
    pool is automatically inert while the network is observed (probe or
    data-plane listeners — observations retain packets), and, under the
    sharded engine, while apps are attached (buffered app deliveries
    outlive the packet's network lifetime); it never changes simulation
    output.  [poison] (default false) additionally stamps released
    packets so stale references read loudly-wrong data and double
    releases raise — the debug mode the allocation tests use. *)

val sim : t -> Sim.t
(** The simulation to schedule control-plane work on.  Classic engine:
    the one heap.  Sharded engine: the coordinator's control heap —
    events run at epoch barriers where every shard clock agrees.
    Consequence: feedback loops closed through this heap (e.g. a TCP
    endpoint's ACK clock) observe the network at epoch granularity, so
    adaptive senders pace to the epoch rather than the wire RTT — the
    same way for every shard count, so determinism is unaffected. *)

val data_sim : t -> node:int -> Sim.t
(** The simulation that executes [node]'s data-plane events: the shard
    heap owning the node (sharded), or the single heap (classic).
    Traffic generators schedule their ticks here. *)

val graph : t -> Topology.Graph.t
val router : t -> int -> Router.t
val iface : t -> src:int -> dst:int -> Iface.t option

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

val subscribe_iface : t -> (iface_event -> unit) -> unit
(** Observe every queue/link event in the network (enqueue, drops,
    transmit, deliver). *)

val subscribe_router : t -> (router_event -> unit) -> unit
(** Observe router-level events (malicious actions, TTL expiry, local
    deliveries, ...). *)

val set_probe : t -> Probe.t option -> unit
(** Attach (or detach) the telemetry probe: every iface/router event and
    every origination is counted and journaled through it.  With no
    probe attached the per-event overhead is one pointer test.
    Attaching a probe also gives it a fresh always-on {!Stats} collector
    (see {!stats}), which the probe feeds itself.  In sharded mode both
    are fed when the epoch flush replays the buffered observations in
    single-heap order, so the aggregate is byte-identical for every
    shard count [K >= 1]. *)

val probe : t -> Probe.t option

val stats : t -> Stats.t option
(** The probe's always-on time-series collector; [None] when no probe
    is attached. *)

val attach_app : t -> node:int -> (Packet.t -> unit) -> unit
(** Register a local-delivery handler at a node; every handler attached
    to the node sees every packet delivered there. *)

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
    forwarding. *)

val make_packet :
  t -> src:int -> dst:int -> flow:int -> size:int -> Packet.proto -> Packet.t
(** Mint a data packet originated at [src]: a recycled record when
    pooling is live, a fresh one otherwise — identical content either
    way (uid from {!fresh_uid}, creation time from [src]'s data-plane
    clock).  Traffic generators must mint through this so recycling is
    transparent to them. *)

val make_ctrl_packet :
  t -> src:int -> dst:int -> flow:int -> size:int -> Packet.proto -> Packet.t
(** {!make_packet} for control-plane endpoints (TCP, Ping): the uid
    comes from the control heap's counter exactly as their direct
    [Packet.make ~sim] calls always drew it, so packet identity is
    unchanged under every engine. *)

val pooling_active : t -> bool
(** Whether packet recycling is currently live (requested at {!create}
    and not suppressed by observation state). *)

val pool_stats : t -> Pool.stats
(** Freelist counters summed over the per-shard pools. *)

val fresh_uid : t -> node:int -> int
(** Mint a packet uid for a packet originated at [node]: the
    simulation-global counter (classic), or the node's private stream
    (sharded — uids must not depend on cross-shard interleaving). *)

val fresh_flow_id : t -> int
(** Flow identifier from the control-plane counter (setup-time, so
    identical under every engine). *)

val flow_rng : t -> flow:int -> Random.State.t
(** Random stream for a traffic generator: the shared simulation stream
    (classic) or a per-flow derived stream (sharded). *)

val run : ?until:float -> ?on_epoch:(now:float -> unit) -> t -> unit
(** Run the engine.  Classic: [Sim.run (sim t)].  Sharded: conservative
    time windows with an observation flush at every epoch boundary;
    [on_epoch] fires after each flush (the live view's tick) and never
    fires on the classic engine. *)

val shards : t -> int
(** Shard count of the engine ([0] = classic single heap). *)

val shard_engine : t -> Shard.t option
(** The sharded engine itself, for stats (windows, epochs, cross-shard
    messages) and tests. *)

val events_processed : t -> int
(** Events executed across every heap of the engine. *)

val cpu_time_in_run : t -> float
(** Processor seconds spent inside event loops, summed over shard
    domains (can exceed wall clock on multiple cores). *)
