(** Conservative-synchronization parallel discrete-event engine.

    Partitions the router graph into K contiguous regions (multi-source
    BFS from evenly spaced seeds — the per-segment locality the
    path-segment protocols already exploit), runs each region's events
    on its own domain with its own {!Prioq} heap, and exchanges
    cross-shard packet handoffs through per-source-shard outboxes that
    the coordinator drains between windows.

    {2 Synchronization}

    Null-message/time-window scheme with lookahead equal to the minimum
    cross-shard link latency: within an epoch the coordinator repeatedly
    drains all outboxes, computes the earliest pending data event
    [T_min] over all shards, and runs every shard in parallel through
    the half-open window [[.., min (T_min + lookahead, epoch_end))].  A
    packet handed to a cross-shard link at [t] arrives no earlier than
    [t + lookahead], i.e. beyond the window that produced it, so no
    shard ever needs to wait for another inside a window.

    {2 Determinism contract}

    Output is byte-identical for every K >= 1 — same verdicts, same
    journal, same trace.  Three mechanisms carry the proof obligation:
    every event is keyed by a causal, partition-independent rank
    ({!Sim} deterministic mode); all control-plane work (detectors, TCP,
    fault injection) and all observation delivery happen at epoch
    boundaries where every shard clock is exactly the boundary; and
    observations emitted inside windows are buffered per shard and
    k-way merged by (time, rank, emission index) at the flush, so the
    telemetry layer — probe, {!Stats}, listeners — replays the exact
    single-heap order; nothing is collected on the shard domains.  K = 1 is the
    sequential reference of the same engine (one shard, no domains
    spawned beyond the coordinator).

    The classic single-heap engine remains available (and untouched) via
    [Net.create] without [~shards]. *)

type obs =
  | Obs_iface of Probe.iface_record
  | Obs_router of Probe.router_record
  | Obs_originate of Packet.t
  | Obs_app of { node : int; pkt : Packet.t }
      (** One data-plane observation, buffered inside a window and
          delivered at the epoch flush.  Link and router observations
          carry the record the probe journals and listeners receive,
          built once when the event fires. *)

type obs_rec = { at : float; rank : int; ix : int; obs : obs }
(** An observation with its merge key: emission time, rank of the
    emitting event, emission index within that event. *)

type t

val partition : Topology.Graph.t -> k:int -> int array
(** [partition g ~k].(router) is the shard owning the router: contiguous
    regions grown breadth-first from k evenly spaced seeds, leftovers of
    disconnected components folded into the smallest shard.
    Deterministic.  Raises [Invalid_argument] unless
    [1 <= k <= size g]. *)

val create :
  seed:int -> ?epoch:float -> graph:Topology.Graph.t -> k:int -> unit -> t
(** Build an engine: K deterministic-rank shard heaps (seeds derived
    from [seed]) plus a control heap.  [epoch] is the control quantum in
    seconds (default 0.1).  Raises [Invalid_argument] for [k] outside
    [1..size graph], a non-positive epoch, or a zero-latency cross-shard
    link (which would leave no lookahead). *)

val k : t -> int
val owner : t -> int -> int
(** Shard owning a router. *)

val shard_sim : t -> int -> Sim.t
(** A shard's data-plane heap. *)

val ctrl_sim : t -> Sim.t
(** The coordinator's control-plane heap. *)

val lookahead : t -> float
(** Minimum cross-shard link latency ([infinity] when nothing crosses —
    e.g. K = 1). *)

val epoch : t -> float

val current : unit -> int
(** Shard the calling domain is running a window for; [-1] on the
    coordinator between windows. *)

val in_window : unit -> bool
(** Whether the calling domain is inside a shard window (observations
    must be buffered) as opposed to a barrier (direct delivery). *)

val record : t -> obs -> unit
(** Buffer an observation from inside a window, keyed by the current
    simulation time, executing event's rank and emission index.  Must
    only be called when {!in_window}. *)

val post :
  t ->
  dest:int -> at:Sim.fbox -> rank:int -> tag:int -> i:int ->
  Obj.t -> Obj.t -> unit
(** Schedule a tagged event ({!Sim.new_tag}) onto shard [dest]'s heap:
    directly when the caller is [dest] itself or the coordinator at a
    barrier, through the calling shard's outbox otherwise (the message
    copies [at], so the caller may reuse the box).  The flat descriptor
    replaces the closure the handoff used to box: [at]/[rank] were
    computed by the sender (at transmit-start), so the destination key
    is identical for every K. *)

val run :
  ?until:float -> ?on_epoch:(now:float -> unit) -> t -> emit:(obs_rec -> unit) -> unit
(** Drive the engine to [until] (or to quiescence).  Spawns K-1 worker
    domains for the run; shard 0 executes on the coordinator.  [emit]
    delivers each buffered observation at the epoch flushes, merged with
    control events in (time, rank) order.  [on_epoch] fires after each
    flush with the boundary time.  Subsequent calls continue the epoch
    grid, so splitting one horizon into several calls at epoch-aligned
    points preserves determinism.  An exception raised by any shard or
    control event is re-raised here after the workers quiesce.
    Quiescence counts heap events only: a transmission end that was
    never needed ({!Iface}'s lazy one, after an unobserved packet was
    corrupted in flight) holds no epoch open. *)

val events_processed : t -> int
(** Events executed, summed over shard heaps and the control heap. *)

val cpu_time_in_run : t -> float
(** Processor seconds inside event loops, summed over domains. *)

val windows_run : t -> int
(** Parallel windows executed (synchronization barriers paid). *)

val epochs_run : t -> int
(** Epoch flushes performed. *)

val cross_messages : t -> int
(** Cross-shard handoffs that travelled through an outbox. *)
