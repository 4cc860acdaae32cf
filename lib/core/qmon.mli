(** Traffic-information collection for Protocol χ (§6.2.1).

    Protocol χ validates one output queue Q of a router r, associated
    with the link ⟨r, rd⟩ (Fig 6.1).  The information used never comes
    from r itself:

    - S, the arrivals into Q, is assembled by the upstream neighbours
      rs1..rsn: each knows exactly when a packet it transmitted reaches r
      (its own dequeue time + serialization + propagation) and can
      predict from the shared routing state that r will forward it
      through Q; the traffic r originates itself is announced by r and
      trusted (§2.1.4 fate sharing — r lying about its own traffic can
      only fabricate congestion against itself, not frame a neighbour);
    - D, the departures, is assembled by rd: arrival time at rd minus
      serialization and propagation gives the instant the packet left Q.

    The monitor additionally supports a calibration phase (the learning
    period for the queue-error distribution): during it, the true queue
    occupancy at enqueue instants is sampled — the one piece of
    information that requires the router's cooperation before it is
    distrusted. *)

type entry = {
  fp : int64;
  size : int;
  flow : int;     (** flow identifier from the packet header *)
  time : float;   (** entry into / exit from Q *)
}
(** One arrival or departure, as a record: what {!round_of_entries}
    takes.  The monitor itself keeps entries in flat buffers ({!view}). *)

type view
(** Arrivals or departures in (time, fingerprint) order, read by index:
    struct-of-arrays storage the monitor reuses.  The entries of a
    drained round's views are valid until the monitor's next {!drain},
    those of a view a {!replay} callback receives for the callback; a
    view's {!length} stays valid. *)

val length : view -> int
val fp : view -> int -> int64
val size : view -> int -> int
val flow : view -> int -> int
val time : view -> int -> float

val occupancy : view -> int -> int option
(** Calibration: the true queue bytes just before this arrival's
    enqueue, when it was sampled (arrivals only). *)

type t

val attach :
  net:Netsim.Net.t ->
  predict:(Netsim.Packet.t -> int) ->
  key:Crypto_sim.Siphash.key ->
  ?skew:(reporter:int -> float) ->
  router:int ->
  next:int ->
  unit ->
  t
(** Monitor the queue of [router]'s interface toward [next].  [predict]
    is the neighbours' model of [router]'s forwarding decision for a
    packet: the next hop, or [-1] for none (plain link-state:
    {!predict_of_routing}; under equal-cost multipath: {!predict_of_ecmp}
    — §7.4.1).  It is asked once per packet delivered to [router] on an
    in-link, so it should allocate nothing.  [skew] models imperfect
    clock synchronization (§7.3): each upstream reporter's timestamps
    are offset by [skew ~reporter] seconds (default none) — small skews
    are absorbed by χ's calibrated error, large ones break it (see the
    ablation).  The monitor subscribes to the link ⟨router, next⟩ and
    to [router]'s in-links only ({!Netsim.Net.subscribe_link}); the rest
    of the network stays unobserved.  Raises [Invalid_argument] if that
    link does not exist. *)

val predict_of_routing :
  Topology.Routing.t -> router:int -> Netsim.Packet.t -> int
(** Single-shortest-path prediction, a table lookup
    ({!Topology.Routing.next_hop_id}) that allocates nothing. *)

val predict_of_ecmp :
  Topology.Ecmp.t -> router:int -> Netsim.Packet.t -> int
(** Flow-hash multipath prediction. *)

val router : t -> int
val next : t -> int

val set_predict : t -> (Netsim.Packet.t -> int) -> unit
(** Swap the forwarding prediction (after a routing change the
    neighbours re-derive it from the new tables). *)

val set_calibrating : t -> bool -> unit
(** Toggle collection of true-occupancy samples. *)

type round_data = {
  arrivals : view;    (** S, up to the horizon *)
  departures : view;  (** D, complete for S (including departures past
                          the horizon) *)
  fabricated : int;
      (** departures never announced upstream (traffic the router
          originates itself is exempt — §2.1.4 fate sharing) *)
}

val drain : t -> horizon:float -> round_data
(** Consume every arrival with [time <= horizon] together with all
    matching departures; later arrivals stay buffered for the next
    round.  [horizon] must leave enough slack for queued packets to
    drain (the caller uses round end minus a guard interval).  A
    departure at or before the horizon whose fingerprint is not among
    the arrivals still pending counts as fabricated and is dropped.
    Arrivals the monitored interface itself dropped with the link down
    are excused and left out of the round: the failure is locally
    observable, so χ must not read the disappearance as malice.
    Occupancy samples are handed out while calibrating; a drain with
    calibration off discards any left over.  The pending buffers are
    compacted in place, and arrivals are sorted only when they were
    reported out of order (a clock [skew]). *)

val replay :
  t ->
  round_data ->
  horizon:float ->
  arrive:(view -> int -> admitted:bool -> unit) ->
  depart:(view -> int -> unit) ->
  unit
(** Walk one drained round through Q in time order, the queue replay of
    Fig 6.2 that χ and χ-RED apply their per-event rules to.  Each
    callback receives a view and an index into it.  Each arrival is
    reported with [admitted], true iff the round's departures include
    its fingerprint (otherwise Q lost it).  The round's departures at or
    before [horizon] are reported together with the ones the previous
    replay carried, all of which replay now; later departures are
    carried to the next replay, so the replayed occupancy keeps its
    backlog across round boundaries.  On equal times arrivals come
    first, then carried departures, then this round's.  [horizon] is
    the one the round was {!drain}ed with.  The walk allocates nothing
    per entry. *)

val replay_clock : t -> Netsim.Sim.fbox
(** The replay's clock: during a {!replay} callback, [(replay_clock
    t).f] is the time of the entry the callback receives ({!time} of
    that view and index).  A rule that needs every entry's time reads
    it here, where {!time}'s float result is boxed per call.  Read-only;
    valid during the callback. *)

val round_of_entries : arrivals:entry list -> departures:entry list -> round_data
(** A round built from entry lists, each in (time, fingerprint) order,
    in fresh storage: for driving {!replay} on constructed data. *)
