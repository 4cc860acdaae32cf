(** Protocol χ for drop-tail queues (§6.2): detecting malicious packet
    losses by predicting congestion.

    Per validation round the detector replays the monitored queue from
    the neighbours' traffic information (S and D of {!Qmon}): packets
    seen entering but never leaving were dropped, and the replayed queue
    state at the drop instant tells congestion from malice.  Because
    processing jitter makes the prediction inexact, the decision is
    statistical: the error X = q_act − q_pred is calibrated during a
    learning period and the two tests of §6.2.1 are applied —

    - single-loss: c_single = P(X <= qlimit − q_pred(ts) − ps), Fig 6.2;
    - combined: a Z-test over all of a round's losses.

    An alarm means "these losses cannot be explained by congestion".

    Each round's replay stops 0.3 s before the round's end, so packets
    still in flight are judged next round, and the calibrated sigma is
    floored at 40 bytes. *)

type config = {
  tau : float;              (** validation round length, seconds *)
  th_single : float;        (** single-loss confidence threshold *)
  th_combined : float;      (** combined-test confidence threshold *)
  learning_rounds : int;    (** calibration rounds before detection starts *)
  min_suspicious : int;
      (** individually-malicious losses needed in a round before the
          single-loss test alarms: 1 assumes clean links; raise it to
          tolerate a bit-error floor (§4.2.1) at the cost of letting a
          one-packet-per-round attacker hide (see ablation 5) *)
}

val default_config : config
(** tau 2 s, thresholds 0.99 / 0.99, 5 learning rounds,
    min_suspicious 1. *)

type loss = {
  fp : int64;
  size : int;
  flow : int;
  time : float;
  qpred : float;            (** replayed queue occupancy at the loss *)
  confidence : float;       (** c_single: probability the loss was malicious *)
}

type report = {
  round : int;
  start_time : float;
  end_time : float;
  arrivals : int;
  departures : int;
  losses : loss list;
  fabricated : int;
  predicted_congestive : int;  (** losses with c_single below threshold *)
  c_single_max : float;
  c_combined : float option;   (** combined test (needs >= 2 losses) *)
  victims : int list;
      (** flows with two or more individually-malicious losses in the
          round — the attack's likely targets *)
  alarm : bool;
  learning : bool;             (** true while calibrating — never alarms *)
}

type t

val deploy :
  net:Netsim.Net.t ->
  rt:Topology.Routing.t ->
  router:int ->
  next:int ->
  ?config:config ->
  ?predict:(Netsim.Packet.t -> int) ->
  ?skew:(reporter:int -> float) ->
  ?probe:Netsim.Probe.t ->
  ?ctrl:Ctrl.t ->
  unit ->
  t
(** Install the monitor on queue ⟨router → next⟩ and schedule validation
    rounds every [tau] seconds.  [predict] overrides the neighbours'
    forwarding prediction (defaults to single-shortest-path from [rt];
    pass {!Qmon.predict_of_ecmp} when the network runs ECMP, §7.4.1).
    With [probe], every post-learning round's verdict (suspect flows,
    max single-loss confidence, alarm) is journaled as a typed
    {!Netsim.Probe.verdict}.

    With [ctrl], the downstream neighbour's per-round departure report
    rides that lossy control-plane channel under {!Ctrl.default_retry}:
    a timed-out report {e degrades} the round — χ has no trustworthy
    replay, so the alarm is suppressed rather than raised on partial
    data — and three
    consecutive refusals (a protocol-faulty mute reporter) judge the
    reporter {b fail-stop} with a non-alarming verdict.  χ never
    convicts a router for silence. *)

val reports : t -> report list
(** All completed round reports, oldest first. *)

val alarms : t -> report list
(** The alarming rounds only. *)

val rounds_degraded : t -> int
(** Rounds whose departure report exhausted its [ctrl] retry budget
    (alarm suppressed, never an accusation). *)

val set_predict : t -> (Netsim.Packet.t -> int) -> unit
(** Swap the monitor's forwarding prediction (call after a routing
    change; see {!Chi_fleet} with a response engine). *)

val mu_sigma : t -> float * float
(** The calibrated error distribution. *)

val error_samples : t -> float list
(** The raw calibration samples of X = q_act − q_pred (capped at 100k) —
    the data behind the Fig 6.3 normality check. *)
