(** A router: forwarding, TTL handling, and the adversarial hook.

    A {e traffic-faulty} router (§2.2.1) alters the packets it forwards.
    Every way it can do so — dropping, modifying, delaying, fabricating —
    is expressed through the [behavior] hook, which sees exactly the
    state a compromised forwarding plane would see (the packet, where it
    came from, where it is going, and the output queue state) and decides
    what happens to the packet.  Correct routers use {!honest}. *)

type context = {
  clock : Sim.fbox;         (** the simulation's clock: now is [clock.f] *)
  mutable prev : int;       (** previous-hop router; [-1] if originated here *)
  mutable next_hop : int;
  mutable queue_occupancy : int;  (** bytes in the output queue toward [next_hop] *)
  mutable queue_limit : int;
  mutable red : Red.t option;
      (** the output queue's RED state when it is RED: {!Red.avg} reads
          its EWMA *)
}
(** What a behavior sees of the packet's situation.  [prev] uses the
    encoding of {!set_forwarding_id}: a router id, or [-1] for a packet
    the router originated.  Each router keeps one context and refills
    it for every packet its behavior judges, so a behavior {e borrows}
    the context for the call, as a listener borrows its view: it reads
    what it needs and keeps neither the record nor its clock's value
    (the fields change under it at the next packet). *)

type action =
  | Forward                 (** behave correctly *)
  | Drop                    (** maliciously discard (silent) *)
  | Modify of int64
      (** XOR the mask into the payload ({!Packet.xor_payload}), then
          forward: a behavior can return one constant [Modify], so a
          modified packet allocates nothing *)
  | Delay of float          (** hold for the given time, then forward *)

type behavior = context -> Packet.t -> action

val honest : behavior
(** Always [Forward]. *)

type event =
  | Malicious_drop    (** discarded by the behavior hook *)
  | Fragmented        (** split at the MTU; the packet is the original *)
  | Malicious_modify  (** payload altered, then forwarded *)
  | Malicious_delay   (** held by the behavior hook, then forwarded *)
  | Fabricated        (** made up by the router and enqueued *)
  | No_route          (** no next hop, or no interface toward it *)
  | Ttl_expired
  | Delivered_local   (** handed to this router's applications *)
(** The kind of a router event.  The constructors are constant, as
    {!Iface.event}'s: the packet, the output neighbour and the one
    scalar travel beside the kind ([on_event]'s other arguments), so
    reporting an event builds no block. *)

type t

val create :
  sim:Sim.t ->
  id:int ->
  n:int ->
  jitter_bound:float ->
  release:(Packet.t -> unit) ->
  on_event:(event -> next:int -> Packet.t -> float -> unit) ->
  local_deliver:(Packet.t -> unit) ->
  t
(** Router [id] of a network of [n] routers: neighbour ids lie in
    [0 .. n-1], and the per-hop interface lookup is a read of an
    [n]-slot array.

    [on_event kind ~next p arg] reports each observed event (see
    {!set_observe}) about packet [p], lent for the call only.  [next]
    is the output neighbour of a [Malicious_drop], [Fragmented],
    [Malicious_modify], [Malicious_delay] or [Fabricated] event and
    [-1] for the other kinds; [arg] is a [Fragmented] event's fragment
    count, a [Malicious_delay]'s delay in seconds, and [0.] otherwise.

    Every visit of a forwarded packet waits one processing delay drawn
    uniformly below [jitter_bound] from the simulation stream
    ({!Sim.rng}; the source of the queue-prediction error Protocol χ
    calibrates, §6.2.1); a bound [<= 0] draws nothing.  A packet that
    comes with the delay already spent — one that arrived from a link,
    or from a CBR/Poisson tick, at [arrive + j] ({!Iface.create},
    {!Packet.spans}) — is enqueued at once, and so are its fragments
    and, after the hold, a packet a [Delay] behavior held.  Any other
    packet (one a TCP or ping endpoint or an app originates) draws its
    delay when it is forwarded and is enqueued by a post-jitter event.
    The draw happens in place, so a hop boxes no float.  Fragments the router mints take
    their uids from the simulation-global counter.  [release]
    receives every packet that dies at this router, after its event
    and, for a local delivery, after [local_deliver] returns — the
    pool-recycling hook. *)

val id : t -> int

val add_iface : t -> Iface.t -> unit
(** Register the output interface toward [Iface.next_hop].  Replaces any
    previous interface to the same neighbour.  Raises [Invalid_argument]
    for an interface of another router or toward an id outside
    [0 .. n-1]. *)

val iface_to : t -> int -> Iface.t option
(** The output interface toward a neighbour: an array read, no hashing. *)

val ifaces : t -> Iface.t list

val set_forwarding_id : t -> (prev:int -> Packet.t -> int) -> unit
(** Install the forwarding decision (link-state, policy or ECMP
    routing).  Previous hop and next hop are plain router ids with [-1]
    meaning "none" (locally originated; no route), so the per-packet
    path allocates no option. *)

type kinds
(** A set of event kinds, as {!Iface.kinds}: a router reports an event
    only when its kind is in the set it observes. *)

val kinds : event list -> kinds
(** The set of the listed kinds: [kinds [ Malicious_drop; No_route ]]. *)

val all_kinds : kinds

val union : kinds -> kinds -> kinds

val wants : kinds -> event -> bool
(** Whether the event's kind is in the set. *)

val set_observe : t -> kinds -> unit
(** The event kinds anything consumes from this router ({!all_kinds} by
    default).  Any other kind costs one bit test and no call.  Terminal
    packets (local delivery, TTL expiry, no-route, malicious drop) go
    to the [release] hook either way, after their event.  Fixed before the run; {!Net} manages it (the union of what
    the probe and the router listeners read). *)

val set_behavior : t -> behavior -> unit
(** Compromise (or restore) the router. *)

val add_multicast_route :
  t -> group:int -> next_hops:int list -> local:bool -> unit
(** Join the distribution tree of multicast [group] (a virtual
    destination id): packets addressed to it are duplicated onto each
    listed interface (the behavior hook runs per branch, so a
    compromised router can prune branches selectively) and delivered
    locally when [local].  §7.4.3: note the deliberate violation of
    naive per-router conservation of flow. *)

val set_mtu : t -> int option -> unit
(** Limit the payload this router forwards per packet: oversized packets
    are split into fresh fragments (§7.4.4 — fragmentation invalidates
    upstream fingerprints, which is why the protocols require
    don't-fragment paths; see test_extensions.ml for the resulting false
    positives). *)

val receive_prev : t -> prev:int -> Packet.t -> unit
(** Packet arrival from neighbour [prev] ([-1] = originated here): local
    delivery or forwarding through the behavior hook. *)

val fabricate : t -> next:int -> Packet.t -> unit
(** Inject a packet the router made up straight into an output queue
    (packet-fabrication attack); emits [Fabricated]. *)

val delivered_packets : t -> int
(** Packets delivered to this router's local applications (always-on
    counter). *)
