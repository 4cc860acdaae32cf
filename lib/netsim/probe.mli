(** The simulator's observability pipeline.

    A probe bundles the always-on {!Stats} collector — the probe's one
    set of counts: packets by outcome, drops by cause, malice by router,
    latency and round histograms — with a bounded {!Telemetry.Journal}
    of typed records covering all three layers: link events, router
    events, and detector verdicts.  A verdict is one
    {!Telemetry.Span.verdict} record, built once by {!record_verdict}
    and shared by the full-run verdict list, the journal and the
    tracer.  Attach one to a network with
    {!Net.set_probe}, which also creates its {!Stats}: the forwarding
    plane feeds it directly, and detectors add verdicts via
    {!record_verdict}.  With no probe attached the per-event cost in the
    forwarding plane is a single pointer test.

    Every hook below forwards to {!Stats}, and {!conservation} is read
    back from it.  [Net] lends the probe, and then its listeners, one
    {!view} per interface or router ({!iface_view} / {!router_view} are
    [Net.iface_event] / [Net.router_event]), overwritten at each
    emission: both layers have the one shape, a constant kind beside
    the packet, the neighbour and a scalar.  The journal keeps neither
    the view nor its packet.  It is a flight recorder: a ring of
    parallel scalar arrays (the time in a float array, a router event's
    scalar in another, and per record twelve ints: kind, router,
    neighbour, the packet's uid, addresses, flow, size and protocol tag
    with its fields), filled from the view during the call the same way
    for both layers; a verdict or fault also fills a slot of a side
    array.  Recording writes scalars into flat arrays, so once the ring
    has wrapped it allocates nothing, and it needs no pointer store, no
    domain check and no division.  An {!entry} record is built only when
    the journal is read ({!journal}, {!describe}, {!json_of_entry},
    {!write_journal}).  So a journal names no packet: a dead packet goes
    straight back to the pool, and reading the journal is safe whatever
    the network has recycled since.  {!describe} renders an entry as one
    line and {!write_journal} exports the journal as JSONL, and
    {!describe_iface} / {!describe_router} render a view through the
    same entry during a listener's callback.

    A probe can additionally bridge into a {!Telemetry.Span} collector
    (pass [tracer] at creation): {!on_originate} then assigns each
    sampled packet a trace id carried in [Packet.trace], per-hop link
    events open queue/transmit spans and drop instants on the packet's
    trace, router events become instants, and {!record_verdict} hands
    the same verdict record to the collector, which pins the
    flight-recorder window for the implicated routers.  Detectors add
    their own round spans and evidence instants via {!trace_span} /
    {!trace_instant}. *)

type 'kind view = {
  clock : Sim.fbox;        (** the event's time is [clock.f] (see below) *)
  router : int;            (** the router, or the owner of the queue *)
  mutable next : int;      (** the neighbour; [-1] when the event names none *)
  mutable kind : 'kind;
  mutable pkt : Packet.t;  (** the packet the event is about *)
  mutable arg : float;     (** the event's one scalar, [0.] when it has none *)
}
(** One observation, of either layer: [Net] keeps two per interface
    ([router] and [next] fixed) and one per router, and overwrites the
    mutable fields at each emission.  The view holds no time of its
    own: [clock] is the simulation's clock ({!Sim.clock}), shared by
    every view of the network, except in an interface's view for its
    arrival-side kinds ([Delivered], [Drop_corrupted]), whose [clock]
    is a box set to the packet's arrival time, up to the jitter bound
    before the simulation's ([Net.view]).  A consumer
    reads [v.clock.f] during its callback — or hands the box on, to
    {!Telemetry.Timeseries.record} say, instead of a float, which the
    call would box.  A router event's [next] and [arg]
    are {!Router.create}'s: the output neighbour, and a [Fragmented]
    event's fragment count or a [Malicious_delay]'s delay.  An
    interface event's [arg] is always [0.]. *)

type iface_view = Iface.event view
type router_view = Router.event view

type verdict = Telemetry.Span.verdict
(** A detector verdict: the one record the probe keeps, journals and
    hands to its tracer. *)

type fault_record = {
  time : float;
  kind : string;     (** "link_down" | "link_up" | "crash" | "restart" | ... *)
  routers : int list;
  detail : string;
}
(** A {e benign} injected fault: churn the oracle must excuse, never a
    malicious action. *)

type entry
(** One journal record: a link event, a router event, a verdict or a
    fault, built from the recorder when it is read and never changed
    after. *)

type t

val create : ?journal_capacity:int -> ?tracer:Telemetry.Span.t -> unit -> t
(** A fresh probe; [journal_capacity] bounds the journal (default 65536
    records; [Invalid_argument] unless positive).  The recorder's arrays
    grow by doubling up to it as the ring first fills, so a probe that
    records little holds little.  Pass [tracer] to record causal spans
    alongside the journal. *)

val journal : t -> entry Telemetry.Journal.t
(** The retained entries, oldest first, built on each call: a journal of
    the probe's capacity whose {!Telemetry.Journal.total} counts every
    record offered and whose {!Telemetry.Journal.dropped} counts those
    evicted.  The probe does not record into it. *)

val set_stats : t -> Stats.t option -> unit
(** Wire the always-on {!Stats} collector (done by [Net.set_probe]):
    originations, link and router events, verdicts, faults and round
    spans then feed it — with or without a tracer attached. *)

val stats : t -> Stats.t option

val on_originate : t -> Packet.t -> unit
(** Count an application origination in {!Stats}.  With a tracer
    attached this also draws the sampling coin and, when sampled, stamps
    [Packet.trace] and records an "originate" instant. *)

val on_iface : t -> iface_view -> unit
val on_router : t -> router_view -> unit
(** Forwarding-plane hooks (called by {!Net}): feed {!Stats}, copy the
    view into a journal slot and (for traced packets) record hop spans
    / instants.  Neither keeps the view. *)

val record_verdict :
  t ->
  time:float ->
  detector:string ->
  ?subject:int ->
  ?suspects:int list ->
  ?confidence:float ->
  alarm:bool ->
  ?detail:string ->
  ?evidence:Telemetry.Span.id list ->
  unit ->
  unit
(** Build the verdict record once, keep it in {!verdicts}, journal it
    and count it in {!Stats}.  With a tracer attached the same record
    becomes a provenance entry whose [evidence] ids (from
    {!trace_span} / {!trace_instant}) justify the accusation, and the
    flight-recorder window for the implicated routers is pinned.  The
    JSONL journal omits [evidence]. *)

val trace_span :
  t ->
  track:string ->
  name:string ->
  ?cat:string ->
  start:float ->
  finish:float ->
  ?routers:int list ->
  ?args:(string * Telemetry.Export.json) list ->
  unit ->
  Telemetry.Span.id option
(** Record a detector-side span on the named track (e.g. a protocol
    round).  [None] — and no work — without a tracer. *)

val trace_instant :
  t ->
  track:string ->
  name:string ->
  ?cat:string ->
  time:float ->
  ?routers:int list ->
  ?args:(string * Telemetry.Export.json) list ->
  unit ->
  Telemetry.Span.id option
(** Record a detector-side point event (e.g. a suspicious loss used as
    verdict evidence).  [None] without a tracer. *)

val record_fault :
  t ->
  time:float ->
  kind:string ->
  ?routers:int list ->
  ?detail:string ->
  unit ->
  unit
(** Journal a benign injected fault (from {!Faults.Injector} or the
    chaos generator), count it ({!faults_recorded} and {!Stats}), and — with a tracer
    attached — record an instant on the detector-side "faults" track so
    the churn shows up in [mrdetect trace explain] next to the verdicts
    it might have confused. *)

val verdicts : t -> verdict list
(** Every verdict recorded through {!record_verdict}, oldest first.
    Unlike the bounded journal — where heavy link traffic can evict an
    early verdict — this list is complete for the whole run; it is what
    {!Faults.Oracle} scores. *)

val first_alarm_time : t -> float option
(** The time of the first alarming entry of {!verdicts}. *)

val faults_recorded : t -> int
(** Total benign faults recorded through {!record_fault}, with or
    without a {!Stats} attached. *)

type conservation = {
  total_injected : int;
      (** originated + fabricated + fragment pieces created *)
  total_delivered : int;
  total_dropped : int;     (** all causes, congestion through malice *)
  total_fragmented : int;  (** originals replaced by their fragments *)
  in_flight : int;
      (** injected − delivered − dropped − fragmented: packets still
          queued or propagating when the run stopped (multicast
          duplication is the one path that injects copies outside these
          counters) *)
}

val conservation : t -> conservation
(** Read off the probe's {!Stats}: the injected, delivered and dropped
    series' totals plus its fabricated, fragment and fragmented
    counters.  All zero for a probe never attached to a network. *)

val describe : entry -> string
(** The one-line trace rendering ("12.0345 r3->r4 deliver #812 ...") of
    an entry. *)

val describe_iface : iface_view -> string
val describe_router : router_view -> string
(** {!describe} of the entry the probe would journal for a view: what a
    listener renders during its callback. *)

val json_of_entry : entry -> Telemetry.Export.json

val write_journal : t -> out_channel -> unit
(** Dump the retained journal as JSONL, oldest entry first. *)
