(** Discrete-event simulation engine.

    The synchronous system model of §2.1.2/§4.1 is realized by a global
    event clock: bounded message delays and coarsely synchronized clocks
    hold by construction.  Deterministic for a fixed seed: events at equal
    times fire in scheduling order, and one random stream ({!rng}) and
    one id counter ({!fresh_id}) serve the whole network. *)

type t

type fbox = Prioq.Event.fbox = { mutable f : float }
(** A flat float box.  Hot-path callers pass absolute times in these:
    the dev profile compiles with [-opaque], so nothing is inlined across
    modules and a float argument or result would be boxed per call. *)

val create : ?seed:int -> unit -> t
(** Fresh simulation at time 0. *)

val now : t -> float
(** Current simulation time in seconds. *)

val clock : t -> fbox
(** The live clock itself: [(clock t).f] is {!now} without a boxed
    result.  Read-only — writing it corrupts the simulation. *)

val rng : t -> Random.State.t
(** The simulation's random state: the single source of randomness for
    forwarding jitter, link corruption, RED and Poisson traffic. *)

val float_into : Random.State.t -> fbox -> unit
(** [float_into rng b] sets [b.f] to [Random.State.float rng b.f], bit
    for bit and drawing the same state, without allocating: the
    standard library's draw boxes its result. *)

val jitter_into : Random.State.t -> bound:float -> fbox -> unit
(** [jitter_into rng ~bound b] sets [b.f] to a processing jitter,
    uniform in [[0, bound)] ({!float_into}), or to [0.] without drawing
    when [bound <= 0].  Pass a bound that is already stored (a record
    field), so that no float is boxed for the call. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a thunk [delay] seconds from now.  Raises [Invalid_argument]
    for a negative or non-finite delay. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run a thunk at an absolute time.  Raises [Invalid_argument] for a
    time in the past or a non-finite one. *)

val run : ?until:float -> t -> unit
(** Process events until the queue is empty or the clock passes [until].
    Events scheduled at exactly [until] are processed. *)

val events_processed : t -> int
(** Total number of events executed so far. *)

val pending : t -> int
(** Number of events currently scheduled. *)

val cpu_time_in_run : t -> float
(** Processor seconds spent inside {!run} so far — with
    {!events_processed} this gives the engine's events/sec
    self-measurement that the telemetry summary reports. *)

val fresh_id : t -> int
(** Monotonically increasing identifier source (packet uids, flow ids);
    deterministic per simulation instance. *)

(** {2 Tagged events (the zero-allocation scheduling path)}

    The engine's hot events — transmission ends, arrivals and
    post-jitter enqueues — are scheduled as an int tag plus
    two uniform payload slots straight into the event queue
    ({!Prioq.Event}, a ladder queue), instead of boxing a closure per
    event.  A tag names a handler registered once at
    module-initialization time; the handler owns the typing discipline
    for the payload slots of its tag.  {!run} dispatches in place: it
    takes the next event's handle, reads its two payload cells into
    locals, frees the handle (which scrubs the cells, so the queue keeps
    no finished event's payloads reachable while the handler runs) and
    then runs the handler; no payload is copied through the queue's
    cursor, which saves four write barriers an event.  Times travel in
    an {!fbox} and the queue passes none as a float, so scheduling and
    dispatching a tagged event allocate nothing, and neither does {!run}
    without [until].  The closure API above remains for cold-path and
    control-plane work (tag 0).  Every entry point raises
    [Invalid_argument] for a time in the past or a non-finite one,
    before drawing a key. *)

val new_tag : (t -> Obj.t -> Obj.t -> int -> unit) -> int
(** Register an event handler and return its tag.  Must be called at
    module-initialization time (the table is read-only afterwards).  The
    handler receives the executing simulation, the
    two payload slots and the int operand. *)

val nil : Obj.t
(** Empty payload slot. *)

val schedule_ev : t -> at:fbox -> tag:int -> i:int -> Obj.t -> Obj.t -> unit
(** A tagged event at absolute time [at.f], keyed like any other event
    scheduled now (the next sequence number). *)

(** {2 Reserved keys (events scheduled only if needed)}

    A caller that may or may not need an event at a known time T — the
    interface's transmission end, needed only when a packet waits behind
    the one on the wire — reserves its key at the moment it would have
    scheduled it, and pushes it later with {!schedule_ev_keyed} only if
    the need arises while {!fired} is still false.  Every other event
    keeps exactly the key it would have had, so the run pops in the same
    order as if the event had been scheduled up front; an event that is
    never needed costs no heap operation and is counted by neither
    {!events_processed} nor {!pending}.  T must lie strictly after the
    time of reservation. *)

val reserve_key : t -> int
(** Claim the key the next scheduled event would get: the next
    insertion sequence number. *)

val fired : t -> at:fbox -> key:int -> bool
(** Whether an event at ([at.f], [key]) would already have run: its
    time is before now, or it is now and its key is at most the largest
    key run at this instant (inside an event), or {!run} stopped at this
    instant.  Allocates nothing. *)

val schedule_ev_keyed :
  t -> at:fbox -> key:int -> tag:int -> i:int -> Obj.t -> Obj.t -> unit
(** A tagged event with a caller-supplied key from {!reserve_key}. *)
