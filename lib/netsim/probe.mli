(** The simulator's observability pipeline.

    A probe bundles a {!Telemetry.Metrics} registry (packet counters by
    outcome, per-router malice counters, a packet-size histogram) with a
    bounded {!Telemetry.Journal} of typed records covering all three
    layers: link events, router events, and detector verdicts.  Delivery
    latency is recorded once per delivered packet, by the {!Stats}
    collector the probe carries.
    Attach one to a network with {!Net.set_probe} — the forwarding plane
    feeds it directly, and detectors add verdicts via
    {!record_verdict}.  With no probe attached the per-event cost in the
    forwarding plane is a single pointer test.

    {!Tracer} derives its legacy line format from the same typed records
    via {!describe}; exporters turn the journal into JSONL with
    {!write_journal}.

    A probe can additionally bridge into a {!Telemetry.Span} collector
    (pass [tracer] at creation): {!on_originate} then assigns each
    sampled packet a trace id carried in [Packet.trace], per-hop link
    events open queue/transmit spans and drop instants on the packet's
    trace, router events become instants, and {!record_verdict} writes a
    provenance record pinning the flight-recorder window for the
    implicated routers.  Detectors add their own round spans and
    evidence instants via {!trace_span} / {!trace_instant}. *)

type iface_record = { time : float; router : int; next : int; ev : Iface.event }
type router_record = { time : float; router : int; ev : Router.event }

type verdict = {
  time : float;
  detector : string;          (** "chi" | "fatih" | "pi2" | "watchers" | ... *)
  subject : int option;       (** the router under validation, if any *)
  suspects : int list;        (** accused routers/flows (detector-specific) *)
  confidence : float option;
  alarm : bool;
  detail : string;
}

type fault_record = {
  time : float;
  kind : string;     (** "link_down" | "link_up" | "crash" | "restart" | ... *)
  routers : int list;
  detail : string;
}
(** A {e benign} injected fault: churn the oracle must excuse, never a
    malicious action. *)

type event =
  | Link of iface_record
  | Node of router_record
  | Verdict of verdict
  | Fault of fault_record

type t

val create :
  ?registry:Telemetry.Metrics.t ->
  ?journal_capacity:int ->
  ?tracer:Telemetry.Span.t ->
  unit ->
  t
(** A fresh probe; [journal_capacity] bounds the journal (default 65536
    records).  Pass [registry] to share one registry across several
    probes (or with application metrics); pass [tracer] to record causal
    spans alongside the journal. *)

val registry : t -> Telemetry.Metrics.t
val journal : t -> event Telemetry.Journal.t

val tracer : t -> Telemetry.Span.t option
(** The span collector attached at creation, if any. *)

val set_stats : t -> Stats.t option -> unit
(** Wire the always-on {!Stats} collector (done by [Net.set_probe]):
    verdicts, faults and round spans then feed its control-plane series
    and histograms — with or without a tracer attached. *)

val stats : t -> Stats.t option

val on_originate : t -> Packet.t -> unit
(** Count an application origination.  With a tracer attached this also
    draws the sampling coin and, when sampled, stamps [Packet.trace]
    and records an "originate" instant. *)

val on_iface : t -> time:float -> router:int -> next:int -> Iface.event -> unit
val on_router : t -> time:float -> router:int -> Router.event -> unit
(** Forwarding-plane hooks (called by {!Net}): bump the matching
    counters, journal the typed record and (for traced packets) record
    hop spans / instants. *)

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
(** Journal a detector verdict; alarming verdicts also advance the
    alarm counter and pin {!first_alarm_time}.  With a tracer attached
    the verdict becomes a provenance record whose [evidence] ids (from
    {!trace_span} / {!trace_instant}) justify the accusation, and the
    flight-recorder window for the implicated routers is pinned. *)

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
    chaos generator), bump the fault counter, and — with a tracer
    attached — record an instant on the detector-side "faults" track so
    the churn shows up in [mrdetect trace explain] next to the verdicts
    it might have confused. *)

val first_alarm_time : t -> float option

val verdicts : t -> verdict list
(** Every verdict recorded through {!record_verdict}, oldest first.
    Unlike the bounded journal — where heavy link traffic can evict an
    early verdict — this list is complete for the whole run; it is what
    {!Faults.Oracle} scores. *)

val faults_recorded : t -> int
(** Total benign faults recorded through {!record_fault}. *)

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

val describe : event -> string
(** The legacy one-line trace rendering ("12.0345 r3->r4 deliver #812
    ...") derived from the typed record. *)

val iface_packet : Iface.event -> Packet.t
val router_packet : Router.event -> Packet.t
(** The packet a record is about (for [Fragmented], the original). *)

val json_of_event : event -> Telemetry.Export.json

val write_journal : t -> out_channel -> unit
(** Dump the retained journal as JSONL, oldest record first. *)
