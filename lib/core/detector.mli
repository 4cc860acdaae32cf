(** A uniform interface over the live detection protocols.

    The experiment harness used to hard-code one [match] per protocol;
    every protocol is now a first-class module implementing {!S},
    registered by name in a global table.  The harness looks a detector
    up by its command-line spelling, [init]s it against the scenario
    environment, and reads it back through [verdicts] and [report] — so
    adding a protocol is one module plus one {!register} call, with no
    harness edits.

    [init] deploys the monitor: it subscribes to whatever events it
    needs and schedules its own work (χ/Fatih/Π2 their τ rounds) on the
    network's simulation, so the harness never drives a detector during
    the run.
    [verdicts]/[report] expose what the detector concluded. *)

type env = {
  net : Netsim.Net.t;
  rt : Topology.Routing.t;
  graph : Topology.Graph.t;
  probe : Netsim.Probe.t option;    (** journal verdicts through this *)
  ctrl : Ctrl.t option;             (** lossy control-plane channel, if faulted *)
  retry : Ctrl.retry option;        (** retry budget for [ctrl] *)
  byz : Byz.t option;
      (** Byzantine control-plane plan: protocols that understand
          claims harden themselves against it (screen origin MACs,
          corroborate before alarming) and run validation on what the
          scripted liars actually submit *)
  skew : (reporter:int -> float) option;
      (** per-reporter clock skew (fault injection) *)
  attacker : int option;
      (** scenario ground truth: the compromised router, when the
          detector needs a deployment site (χ monitors one queue) *)
  duration : float;                 (** seconds the scenario will run *)
  seed : int;
}

(** A generic accusation: who a protocol suspects, and when.  Each
    adapter maps its protocol-specific detection record onto this. *)
type verdict = {
  time : float;
  suspects : int list;              (** routers accused (possibly a segment) *)
  detail : string;                  (** protocol-specific one-liner *)
}

module type S = sig
  type t

  val name : string
  (** Registry key and command-line spelling. *)

  val doc : string
  (** One-line description for [--help] and error messages. *)

  val init : env -> t
  (** Deploy against the scenario.  Runs before the simulation starts;
      raises [Invalid_argument] when the environment cannot host the
      protocol (e.g. χ without an attacker to monitor). *)

  val verdicts : t -> verdict list
  (** Accusations so far, oldest first. *)

  val report : t -> unit
  (** Print the end-of-run summary on stdout. *)
end

type detector = (module S)

type instance
(** A running detector: a module paired with its state. *)

val register : detector -> unit
(** Add (or replace) a detector under its [name]. *)

val find : string -> detector option

val names : unit -> string list
(** Registered names, sorted. *)

val doc_of : detector -> string
val name_of : detector -> string

val init : detector -> env -> instance
val instance_name : instance -> string
val verdicts : instance -> verdict list
val report : instance -> unit
