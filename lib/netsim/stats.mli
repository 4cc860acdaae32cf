(** Always-on time-series collection for a simulated run.

    A [Stats.t] rides inside the {!Probe}: headline event rates as
    downsampling {!Telemetry.Timeseries} rings, latency and duration
    {!Telemetry.Hist} histograms and per-router queue-depth series —
    all bounded, all fed with O(1) allocation-free records by the
    probe's own hooks.  Per-link transmit/drop totals are not counted
    here: {!to_json} reads them off the interfaces
    ({!Iface.tx_packets} / {!Iface.dropped_packets}).

    Series samples are integers (1 per event, a queue depth), so no
    sample boxes a float; {!to_json} and {!prometheus} render the sums
    as floats.  It is the probe's one set of counts.  A headline
    series' total ({!Telemetry.Timeseries.total_count}) is exact, so
    injected, delivered, dropped, malice, verdict, alarm and fault
    totals are read off the series; plain counters hold only what no
    series does: drops by cause, fabricated packets, fragments, and
    malice by router.  {!Probe.conservation} is computed from these. *)

type t

val create : n:int -> Iface.t list -> t
(** A collector for an [n]-router network with these interfaces (done
    by [Net.set_probe]).  The interfaces count from their creation, so
    the [links] section covers the whole run when the probe is
    attached before traffic starts. *)

val routers : t -> int

val set_attack_start : t -> float -> unit
(** Arms the detection-latency histograms: subsequent alarming verdicts
    record [time - attack_start]. *)

(** {2 Data plane} *)

(** The data-plane hooks take their time as a flat box — the packet's
    [created], or the view's [clock] — and read it inside: passed as a
    float between modules it would be boxed at every event, so a hook
    allocates nothing but a delivery's latency sample. *)

val on_originate : t -> Packet.t -> unit
(** Count an origination at the packet's creation time. *)

val on_iface : t -> clock:Sim.fbox -> router:int -> Iface.event -> unit
(** A link event at [clock.f].  Queue depth moves on [Enqueued] and
    [Transmit_start] only: a [Drop_link_down] packet never entered the
    queue. *)

val on_router :
  t -> clock:Sim.fbox -> router:int -> Router.event -> Packet.t -> float -> unit
(** A router event at [clock.f] at [router] about a packet, with its
    scalar as {!Router.create} reports it (a [Fragmented] event's
    fragment count); malicious actions count against [router]. *)

(** {2 Control plane} *)

val on_verdict : t -> time:float -> detector:string -> alarm:bool -> unit

val on_round : t -> track:string -> start:float -> finish:float -> unit
(** Record a protocol round duration.  [track] is the span track name
    ("fatih", "chi r3"); its first token keys the per-protocol
    histogram. *)

val on_ctrl_send : t -> attempts:int -> ok:bool -> unit
val on_fault : t -> time:float -> unit

(** {2 Views} *)

val to_json : t -> Telemetry.Export.json
(** The "stats" section of the metrics document: headline series,
    histograms (with deterministic p50/p95/p99), ctrl channel counters,
    per-link totals (interfaces that transmitted or dropped, by (src,
    dst)) and per-router queue-depth series.  Deterministically
    ordered. *)

val prometheus : t -> string
(** Prometheus text rendering of every collector ([stats_] prefix):
    series as per-bucket gauge vectors, histograms with [le=] edges
    exactly {!Telemetry.Hist.uppers}, per-protocol histograms and
    per-router queue depths as labelled families, and the
    [stats_dropped_total{cause}] / [stats_malice_total{router}]
    counters.  Each family has exactly one [# TYPE] header, ahead of
    its samples. *)

val drops : t -> (string * int) list
(** Drop totals by cause, every cause in a fixed order: congestion,
    red_early, link_down, corrupted, malicious, no_route, ttl_expired.
    They sum to the [dropped] series' total. *)

val malice_by_router : t -> (int * int) list
(** Malicious actions per router, ascending, non-zero routers only. *)

val fabricated : t -> int
(** Packets injected by a malicious router. *)

val fragments_created : t -> int
(** Fragment pieces created. *)

val fragmented : t -> int
(** Originals replaced by their fragments. *)

val injected : t -> Telemetry.Timeseries.t
val delivered : t -> Telemetry.Timeseries.t
val dropped : t -> Telemetry.Timeseries.t
val malice : t -> Telemetry.Timeseries.t
val alarms : t -> Telemetry.Timeseries.t
val delivery_latency : t -> Telemetry.Hist.t
val ctrl_attempts_hist : t -> Telemetry.Hist.t
val ctrl_sends : t -> int
val ctrl_timeouts : t -> int
val queue_depth : t -> int -> Telemetry.Timeseries.t
val round_durations : t -> (string * Telemetry.Hist.t) list
val detection_latencies : t -> (string * Telemetry.Hist.t) list
