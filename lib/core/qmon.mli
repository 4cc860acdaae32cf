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

type t

val attach :
  net:Netsim.Net.t ->
  predict:(Netsim.Packet.t -> int option) ->
  key:Crypto_sim.Siphash.key ->
  ?skew:(reporter:int -> float) ->
  router:int ->
  next:int ->
  unit ->
  t
(** Monitor the queue of [router]'s interface toward [next].  [predict]
    is the neighbours' model of [router]'s forwarding decision for a
    packet (plain link-state: {!predict_of_routing}; under equal-cost
    multipath: {!predict_of_ecmp} — §7.4.1).  [skew] models imperfect
    clock synchronization (§7.3): each upstream reporter's timestamps
    are offset by [skew ~reporter] seconds (default none) — small skews
    are absorbed by χ's calibrated error, large ones break it (see the
    ablation).  Raises [Invalid_argument] if that link does not
    exist. *)

val predict_of_routing :
  Topology.Routing.t -> router:int -> Netsim.Packet.t -> int option
(** Single-shortest-path prediction. *)

val predict_of_ecmp :
  Topology.Ecmp.t -> router:int -> Netsim.Packet.t -> int option
(** Flow-hash multipath prediction. *)

val router : t -> int
val next : t -> int

val set_predict : t -> (Netsim.Packet.t -> int option) -> unit
(** Swap the forwarding prediction (after a routing change the
    neighbours re-derive it from the new tables). *)

val set_calibrating : t -> bool -> unit
(** Toggle collection of true-occupancy samples. *)

val benign_excused : t -> int
(** Announced arrivals excused because the monitored interface dropped
    them with the link down — a locally observable benign failure the
    neighbours learn from the link-state flood, so χ must not read the
    disappearance as malice. *)

type round_data = {
  arrivals : entry list;        (** S, time-ordered, up to the horizon *)
  departures : entry list;      (** D, time-ordered (complete for S) *)
  fabricated : int64 list;
      (** departures never announced upstream (traffic the router
          originates itself is exempt — §2.1.4 fate sharing) *)
  occupancy_samples : (int64 * int) list;
      (** calibration: fp -> true queue bytes just before its enqueue *)
}

val drain : t -> horizon:float -> round_data
(** Consume every arrival with [time <= horizon] together with all
    matching departures; later arrivals stay buffered for the next
    round.  [horizon] must leave enough slack for queued packets to
    drain (the caller uses round end minus a guard interval). *)

val replay :
  t ->
  round_data ->
  horizon:float ->
  arrive:(entry -> admitted:bool -> unit) ->
  depart:(entry -> unit) ->
  unit
(** Walk one drained round through Q in time order, the queue replay of
    Fig 6.2 that χ and χ-RED apply their per-event rules to.  Each
    arrival is reported with [admitted], true iff the round's
    departures include its fingerprint (otherwise Q lost it).  The
    round's departures at or before [horizon] are reported together
    with the ones the previous replay carried, all of which replay now;
    later departures are carried to the next replay, so the replayed
    occupancy keeps its backlog across round boundaries.  On equal
    times arrivals come first, then carried departures, then this
    round's.  [horizon] is the one the round was {!drain}ed with. *)
