(** The detectors [mrdetect simulate] deploys, by command-line name.

    A closed table, one entry per live protocol:

    - ["chi"] — Protocol χ on the attacker's first output queue, with a
      TCP connection through it so congestion ambiguity exists (§6.2);
    - ["fatih"] — the Fatih Πk+2 (k = 1) prototype with response (§5.3);
    - ["perlman"] — Perlman's robust f+1 disjoint-path delivery (§3.7):
      no detection, the robustness baseline;
    - ["pi2"] — Protocol Π2 by simulated consensus (§5.1);
    - ["pik2"] — Πk+2 by its paper name: the same live deployment as
      ["fatih"], under the protocol's §5.2 spelling;
    - ["watchers"] — WATCHERS conservation-of-flow validation (§3.1).

    Each deployment subscribes to the events it needs and schedules its
    own work (χ/Fatih/Π2 their τ rounds) on the network's simulation, so
    the harness never drives a detector during the run. *)

(** The scenario a detector is deployed into. *)
type env = {
  net : Netsim.Net.t;
  rt : Topology.Routing.t;
  probe : Netsim.Probe.t option;    (** journal verdicts through this *)
  ctrl : Ctrl.t option;             (** lossy control-plane channel, if faulted *)
  byz : Byz.t option;
      (** Byzantine control-plane plan: protocols that understand
          claims harden themselves against it (screen origin MACs,
          corroborate before alarming) and run validation on what the
          scripted liars actually submit *)
  skew : (reporter:int -> float) option;
      (** per-reporter clock skew (fault injection) *)
  attacker : int;
      (** scenario ground truth: the compromised router, the deployment
          site of detectors that monitor one queue (χ) *)
  duration : float;                 (** seconds the scenario will run *)
}

type t = {
  name : string;  (** command-line spelling *)
  doc : string;   (** one-line description for [--help] *)
  deploy : env -> unit -> unit;
      (** Deploy against the scenario before the run starts, and return
          the printer of the end-of-run summary (stdout).  Raises
          [Invalid_argument] when the environment cannot host the
          protocol (χ at an attacker without an interface, perlman
          without two disjoint paths). *)
}

val all : t list
(** Every detector, sorted by name. *)

val find : string -> t option
