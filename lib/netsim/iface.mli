(** An output interface: a queue drained onto a point-to-point link.

    Implements the §6.1.3 forwarding model: a packet is enqueued into the
    output buffer (or dropped by congestion/RED), transmitted at link
    rate, and delivered to the neighbour after the propagation delay.
    Every observable transition is reported through an event callback;
    the monitoring layer builds its traffic information from these events
    exactly as neighbours would observe them on the wire.

    {2 Lazy transmission end}

    Starting a transmission of [tx] seconds at time [t0] reserves the
    key of its transmission-end event at ([t0 + tx]) with
    {!Sim.reserve_key}, at the moment the event itself used to be
    scheduled.  The event is pushed with that key only when a packet
    waits behind the one on the wire — at transmit-start when the queue
    is still non-empty, or at {!enqueue} while the interface is busy —
    because only then does it have work to do (start the head of the
    queue).  An uncongested hop therefore costs one queue event, the
    arrival, which also carries the receiving router's processing
    jitter (see {!create}).

    The interface is {e busy} while a pushed transmission-end event is
    pending or the virtual one has not fired ({!Sim.fired}: [t0 + tx] is
    still ahead, or it is now and its key sorts after the events run so
    far at this instant).  Same-time ties therefore resolve exactly as
    if the event had been in the queue all along: events, observations
    and random draws happen in the same order, and only
    {!Sim.events_processed} counts fewer events. *)

type kind =
  | Droptail of int        (** drop-tail with the given byte limit *)
  | Red_queue of Red.params

type event =
  | Enqueued         (** admitted to the output buffer *)
  | Drop_congestion  (** buffer full (drop-tail or RED forced) *)
  | Drop_red_early   (** RED probabilistic early drop *)
  | Drop_link_down   (** offered to a failed link *)
  | Drop_corrupted   (** damaged in flight, discarded by the receiving
                         line card (4.2.1) *)
  | Transmit_start   (** left the queue, serialization begins *)
  | Delivered        (** arrived at the far end of the link *)
(** The kind of a transition.  The constructors are constant: the
    packet travels beside the kind ([on_event]'s second argument), so
    reporting a transition builds no block. *)

type t

val create :
  sim:Sim.t ->
  link:Topology.Graph.link ->
  kind:kind ->
  jitter_bound:float ->
  release:(Packet.t -> unit) ->
  on_event:(event -> Packet.t -> unit) ->
  deliver:(prev:int -> Packet.t -> unit) ->
  t
(** Build the interface for a directed link.  [on_event kind p] reports
    each observed transition of packet [p] (see {!set_observe}); [p] is
    lent for the call only, since it may die right after.

    A packet whose transmission starts at [t0] arrives at [link.dst] at
    [arrive = t0 + size/bw + delay], which the interface stores in the
    packet ([spans.arrive]).  The receiving router's processing jitter
    j, uniform below [jitter_bound] ({!Sim.jitter_into}), is drawn from
    the simulation stream at transmit-start, and the arrival event
    fires at [arrive + j]: there the corruption coin is drawn from the
    same stream, and [deliver] is invoked with [prev = link.src], so
    the router forwards the packet and enqueues it at once.  A packet
    addressed to [link.dst] itself draws no jitter and arrives at
    [arrive].  [Delivered] and [Drop_corrupted] are reported at the
    arrival event; a consumer stamps them with [spans.arrive], up to
    [jitter_bound] before the clock ({!Net.subscribe_iface}).

    A [Red_queue] draws its drop coins from the simulation stream.
    [release] receives every packet this interface kills, after its
    drop event — the pool-recycling hook. *)

type kinds
(** A set of event kinds: what one consumer reads.  An interface reports
    a transition only when its kind is in the set it observes. *)

val kinds : event list -> kinds
(** The set of the listed kinds: [kinds [ Delivered; Drop_link_down ]]. *)

val all_kinds : kinds

val union : kinds -> kinds -> kinds

val wants : kinds -> event -> bool
(** Whether the event's kind is in the set. *)

val set_observe : t -> kinds -> unit
(** The event kinds anything consumes from this interface.  Each
    transition is reported through [on_event] only when its kind is in
    the set ({!all_kinds}, the default, reports every transition); any
    other kind costs one bit test and no call.
    {!Net} manages it from its probe and subscriber state: the union of
    what the probe and the listeners on this interface read. *)

val owner : t -> int
(** The router that owns the queue ([link.src]). *)

val next_hop : t -> int
(** The neighbour the interface feeds ([link.dst]). *)

val link : t -> Topology.Graph.link

val occupancy : t -> int
(** Bytes currently buffered. *)

val queue_limit : t -> int
(** Byte limit of the buffer. *)

val red_state : t -> Red.t option
(** The RED queue when [kind] is [Red_queue]: one option built with the
    interface, so reading it allocates nothing. *)

val enqueue : t -> Packet.t -> unit
(** Submit a packet for transmission (the router's forwarding step). *)

val backlog : t -> int
(** Packets currently buffered. *)

val is_up : t -> bool

val set_up : t -> bool -> unit
(** Fail or restore the link.  While down, offered packets are dropped
    with [Drop_link_down] and buffered packets wait; restoring resumes
    transmission. *)

val set_corruption : t -> float -> unit
(** Per-packet probability of in-flight damage (checksum failure at the
    receiver); corrupted packets raise [Drop_corrupted] instead of being
    delivered.  Raises [Invalid_argument] outside [0,1]. *)

val tx_packets : t -> int
(** Packets whose serialization onto the link started (always-on
    per-interface counter). *)

val dropped_packets : t -> int
(** Packets this interface discarded (congestion, RED, link-down or
    in-flight corruption). *)
