(** Ground truth for robustness runs.

    The oracle knows two things the detectors do not: which routers the
    adversary script actually controls, and which anomalies were
    injected-benign churn from a {!Schedule}.  Scoring a run's verdict
    stream against that ground truth yields the robustness metrics the
    chaos sweeps report:

    - {b precision} — alarming verdicts that implicate at least one
      truly malicious router, over all alarming verdicts (1 when the
      run never alarms);
    - {b recall} — truly malicious routers implicated by at least one
      alarm, over all malicious routers (1 when none exist);
    - {b false-accusation rate} — alarming verdicts that implicate
      {e only} benign routers, over all verdicts rendered (0 when no
      verdicts are rendered) — the paper's headline failure mode, a
      merely unlucky router treated as a traffic-faulty one;
    - {b detection latency} — time from [attack_start] to the first
      alarm implicating a malicious router, [None] if never.

    An alarming verdict implicates its [subject] when it has one (chi's
    monitored router, fatih's segment interior) and its [suspects]
    otherwise. *)

type outcome = {
  verdicts : int;          (** all verdicts rendered, alarming or not *)
  alarms : int;
  true_alarms : int;       (** alarms implicating >= 1 malicious router *)
  false_alarms : int;      (** alarms implicating only benign routers *)
  detected : int list;     (** malicious routers implicated, ascending *)
  falsely_accused : int list; (** benign routers implicated, ascending *)
  precision : float;
  recall : float;
  false_accusation_rate : float;
  detection_latency : float option;
  latency_hist : Telemetry.Hist.t;
      (** latency of {e every} true alarm (not just the first), in a
          mergeable histogram bucketed like {!Netsim.Stats}' detection
          hist — the source of the report's
          [detection_latency_quantiles] (count/mean/p50/p95/p99, [null]
          when no true alarm fired) and, merged exactly across runs, of
          the same field under [aggregate] in {!merge_json}. *)
  faults_injected : int;   (** benign fault records in the run *)
  byzantine : int list;    (** protocol-faulty ground truth, ascending *)
  framing_attempts : int;  (** rounds a framer submitted forged entries *)
  forgeries_rejected : int;   (** forged entries killed by origin MACs *)
  forgeries_accepted : int;   (** forged entries folded in (unhardened) *)
  equivocations_detected : int;
  mute_refusals : int;
  framed_honest : int;
      (** alarming verdicts convicting an honest router {e by name}
          ([subject] set to a non-faulty router) — the framing failure
          mode the hardened protocols must hold at zero *)
  alpha_violations : int;
      (** alarming verdicts implicating {e no} faulty router at all —
          the event α-accuracy forbids (with no Byzantine ground truth
          this coincides with [false_alarms]) *)
}

val score :
  malicious:int list ->
  ?byzantine:int list ->
  ?attack_start:float ->
  ?faults_injected:int ->
  ?byz_stats:Core.Byz.stats ->
  Netsim.Probe.verdict list ->
  outcome
(** Score a verdict stream.  [attack_start] (default 0) anchors the
    detection latency; [faults_injected] is carried through to the
    report.  [byzantine] (default none) extends the faulty ground truth
    to protocol-faulty routers: a true alarm may implicate either kind,
    while [recall] keeps its traffic-faulty denominator (stallers and
    equivocators need not be {e detected}, only never-framed-by).
    [byz_stats] carries the adversary-side counters (framing attempts,
    forgeries rejected/accepted, equivocations, mute refusals) into the
    report. *)

val of_probe :
  malicious:int list ->
  ?byzantine:int list ->
  ?attack_start:float ->
  ?byz_stats:Core.Byz.stats ->
  Netsim.Probe.t ->
  outcome
(** Score a finished run straight from its probe: verdicts and the
    injected-fault count come from the probe's full-run retention
    ([Probe.verdicts] / [Probe.faults_recorded]), not the bounded
    journal, so heavy link traffic cannot evict an early verdict from
    the scoring. *)

val json_report : outcome -> Telemetry.Export.json
(** The [mrdetect-robustness-v1] report document. *)

val merge_json : outcome list -> Telemetry.Export.json
(** A [mrdetect-robustness-v1] document whose [runs] array holds one
    report per outcome, plus aggregate worst-case metrics. *)
