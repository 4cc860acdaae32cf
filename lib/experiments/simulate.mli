(** Free-form scenario driver behind `mrdetect simulate`: pick a
    topology, an attack and a detector, run it, and print what the
    detector concluded next to the ground truth.

    Detectors are resolved by name in the closed {!Core.Detectors}
    table (chi, fatih, perlman, pi2, pik2, watchers) — the driver has
    no per-protocol code.

    With [metrics] and/or [journal] set in the configuration, the run
    carries a {!Netsim.Probe}: packet counters, per-router gauges,
    detector verdicts and run profiling come out as a JSON document (or
    Prometheus text for a [.prom]/[.txt] path), and the typed event
    journal as JSONL.  With [trace_out] set, the probe additionally
    bridges into a {!Telemetry.Span} collector and the run ends by
    writing a Chrome trace-event file (load it in Perfetto, or query it
    with [mrdetect trace explain]). *)

type topo = Line | Ring | Grid | Abilene

type attack = No_attack | Drop_all | Drop_fraction of float | Drop_syn | Queue_conditioned of float

(** The full scenario description — one record instead of a dozen
    labeled arguments, validated before anything is simulated.  Build
    it from {!Config.default} ([{ Config.default with protocol = "chi" }])
    or with {!Config.of_cmdline}; {!run} validates it either way. *)
module Config : sig
  type t = {
    topo : topo;
    protocol : string;       (** detector name in {!Core.Detectors.all} *)
    attack : attack;
    attacker : int;          (** compromised router id *)
    duration : float;        (** seconds simulated *)
    seed : int;
    flows : int;             (** CBR flows between random pairs *)
    trace : int;             (** dump the last N events at the attacker *)
    metrics : string option; (** metrics/summary export path *)
    journal : string option; (** JSONL event-journal path *)
    trace_out : string option; (** Chrome trace-event export path *)
    trace_sample : float;    (** fraction of packets traced, in [0,1] *)
    faults : string option;  (** benign fault-plan file ({!Faults.Schedule}) *)
  }

  val default : t
  (** Ring topology, fatih, 20% drop fraction at router 2, 60 s, seed 1,
      8 flows, no trace, no exports, trace sampling at 1.0, no faults. *)

  val validate : t -> (t, string) result
  (** Reject a non-positive duration or one above a million seconds,
      fewer than one flow, a negative trace length, a sample rate
      outside [0,1], a protocol name absent from {!Core.Detectors.all},
      an attacker id outside the chosen topology and a drop/queue
      fraction outside [0,1] — before any simulation state is built. *)

  val of_cmdline :
    topology:string ->
    protocol:string ->
    attack:string ->
    fraction:float ->
    attacker:int ->
    duration:float ->
    seed:int ->
    flows:int ->
    trace:int ->
    metrics:string option ->
    journal:string option ->
    trace_out:string option ->
    trace_sample:float ->
    faults:string option ->
    (t, string) result
  (** Parse the raw command-line spellings and {!validate} the result. *)
end

val run :
  ?on_progress:(now:float -> Netsim.Net.t -> unit) ->
  ?progress_interval:float ->
  Config.t ->
  unit
(** Build the network, start [flows] CBR flows between
    distinct random pairs plus TCP where the detector needs congestion,
    compromise [attacker] at one third of [duration], run, and print a
    summary.

    [metrics] names a file for the metrics/summary export: JSON by
    default (schema ["mrdetect-metrics-v1"]: scenario echo, packet
    conservation, detection latency, engine self-profiling, per-phase
    wall clock, drops by cause, malicious actions by router and the
    {!Netsim.Stats} section), Prometheus text ({!Netsim.Stats.prometheus})
    for a [.prom]/[.txt] suffix.  [journal] names a JSONL file receiving the
    typed event journal (newest 262144 records).  With neither given, no
    probe is attached and the forwarding plane runs exactly as before.

    [faults] names a {!Faults.Schedule} file: the plan is validated
    against the topology, injected into the run (link flaps, crashes,
    lossy control-plane channels, clock skew), a probe is attached
    regardless of the export flags, and the report ends with the
    {!Faults.Oracle} scoring of every verdict against ground truth.
    Raises [Invalid_argument] when {!Config.validate} rejects the
    configuration, when the fault plan does not parse, or when it names
    routers or links outside the topology.

    [on_progress] is the live-view hook ([mrdetect top]): it fires every
    [progress_interval] sim seconds (default 0.5): the run is sliced
    into multiple [Net.run] calls, byte-identical to a single-shot run.
    Passing it forces a probe (and thus the always-on {!Netsim.Stats}
    collector) even with no exports configured. *)
