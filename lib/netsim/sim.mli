(** Discrete-event simulation engine.

    The synchronous system model of §2.1.2/§4.1 is realized by a global
    event clock: bounded message delays and coarsely synchronized clocks
    hold by construction.  Deterministic for a fixed seed: events at equal
    times fire in scheduling order.

    {2 Deterministic-rank mode}

    A simulation created with [~det:true] keys every event by a
    deterministic {e rank} instead of an insertion sequence number.  The
    rank is a splitmix64-style hash of the causal position — the i-th
    event scheduled while executing a parent event gets
    [mix parent_rank i]; the i-th event scheduled outside any event
    (setup code) gets [mix 0 i].  Because the causal tree of events does
    not depend on how routers are partitioned across shards, ranks give
    the sharded engine ({!Shard}) a total order over same-time events
    that is byte-identical for any shard count.  The rank context lives
    in domain-local storage, so each shard domain tracks its own
    executing event without synchronization.  The classic engine
    ([~det:false], the default) is unchanged: insertion order breaks
    ties. *)

type t

type fbox = Prioq.Event.fbox = { mutable f : float }
(** A flat float box.  Hot-path callers pass absolute times in these:
    the dev profile compiles with [-opaque], so nothing is inlined across
    modules and a float argument or result would be boxed per call. *)

val create : ?seed:int -> ?det:bool -> unit -> t
(** Fresh simulation at time 0.  [det] (default [false]) switches on
    deterministic-rank event keys; see the module preamble. *)

val now : t -> float
(** Current simulation time in seconds. *)

val clock : t -> fbox
(** The live clock itself: [(clock t).f] is {!now} without a boxed
    result.  Read-only — writing it corrupts the simulation. *)

val rng : t -> Random.State.t
(** The simulation's random state (single source of randomness for the
    classic engine; the sharded engine gives data-plane entities their
    own derived streams instead). *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a thunk [delay] seconds from now.  Raises [Invalid_argument]
    for a negative or non-finite delay. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run a thunk at an absolute time.  Raises [Invalid_argument] for a
    time in the past or a non-finite one. *)

val run : ?until:float -> t -> unit
(** Process events until the queue is empty or the clock passes [until].
    Events scheduled at exactly [until] are processed. *)

val run_window : t -> until:float -> inclusive:bool -> unit
(** Process events with time [< until] ([<= until] when [inclusive]),
    then advance the clock to [until].  The sharded engine's
    conservative time windows: half-open so boundary events land in the
    next window on every shard alike; the final window of a run is
    inclusive so events at exactly the horizon still execute. *)

val next_key : t -> (float * int) option
(** Time and rank of the earliest pending event, without executing it;
    the coordinator uses this to merge per-shard observation streams
    with control-plane events in (time, rank) order. *)

val run_next : t -> unit
(** Execute exactly the earliest pending event (no-op when idle). *)

val settle : t -> until:float -> inclusive:bool -> unit
(** Declare every event before [until] run ([<= until] when
    [inclusive]) — the caller guarantees none is pending — and advance
    the clock there if it is behind (never backwards); {!fired} then
    answers accordingly.  The coordinator pins every shard clock to the
    epoch boundary this way between windows. *)

val events_processed : t -> int
(** Total number of events executed so far. *)

val pending : t -> int
(** Number of events currently scheduled. *)

val cpu_time_in_run : t -> float
(** Processor seconds spent inside {!run}/{!run_window} so far — with
    {!events_processed} this gives the engine's events/sec
    self-measurement that the telemetry summary reports. *)

val fresh_id : t -> int
(** Monotonically increasing identifier source (packet uids, flow ids);
    deterministic per simulation instance. *)

val reset_det_context : unit -> unit
(** Reset the calling domain's deterministic-rank context (root event
    counter and per-event state).  The sharded engine calls this when an
    engine is created so that consecutive runs in one process draw
    identical root ranks. *)

val current_rank : unit -> int
(** Rank of the event the calling domain is currently executing (0
    outside events); keys buffered observations. *)

val next_obs_ix : unit -> int
(** Next observation index within the currently executing event — a
    within-event emission counter that orders observations produced by
    the same event. *)

(** {2 Tagged events (the zero-allocation scheduling path)}

    The engine's hot events — transmission ends, arrivals, post-jitter
    enqueues, cross-shard receives — are scheduled as an int tag plus
    two uniform payload slots straight into the flat event heap
    ({!Prioq.Event}), instead of boxing a closure per event.  A tag
    names a handler registered once at module-initialization time; the
    handler owns the typing discipline for the payload slots of its
    tag.  Times travel in an {!fbox}, so scheduling allocates nothing.
    The closure API above remains for cold-path and control-plane work
    (tag 0).  Every entry point raises [Invalid_argument] for a time in
    the past or a non-finite one, before drawing a key. *)

val new_tag : (t -> Obj.t -> Obj.t -> int -> unit) -> int
(** Register an event handler and return its tag.  Must be called at
    module-initialization time (the table is read-only once shard
    domains start).  The handler receives the executing simulation, the
    two payload slots and the int operand. *)

val nil : Obj.t
(** Empty payload slot. *)

val schedule_ev : t -> at:fbox -> tag:int -> i:int -> Obj.t -> Obj.t -> unit
(** A tagged event at absolute time [at.f], keyed like any other event
    scheduled now (the next sequence number, or a fresh rank). *)

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
    insertion sequence number (classic engine) or a fresh deterministic
    rank from the calling domain's context ([~det:true]; also the rank a
    cross-shard handoff carries). *)

val fired : t -> at:fbox -> key:int -> bool
(** Whether an event at ([at.f], [key]) would already have run: its
    time is before now, or it is now and its key is at most the largest
    key run at this instant (inside an event), or the engine has
    finished this instant ({!run} or an inclusive {!run_window} stopped
    here).  Allocates nothing. *)

val schedule_ev_keyed :
  t -> at:fbox -> key:int -> tag:int -> i:int -> Obj.t -> Obj.t -> unit
(** A tagged event with a caller-supplied key: one from {!reserve_key},
    or a rank drawn on another shard (cross-shard handoffs land in the
    destination heap with the rank drawn at the source, so the key is
    K-invariant). *)
