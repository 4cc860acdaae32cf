(** Protocol χ for RED queues (§6.5): traffic validation under
    non-deterministic queuing.

    RED drops randomly, so the validator cannot predict individual drops;
    it can, however, replay the deterministic part of RED (the EWMA and
    the uniformized drop probability, Fig 6.10) from the neighbours'
    traffic information and judge the {e set} of observed drops:

    - a drop while the replayed average queue is below min_th with room
      in the physical queue has RED-probability ~0: individually
      malicious;
    - otherwise, the probability that RED would produce at least the
      observed number of drops among the round's arrivals is a
      Poisson-binomial tail; when that tail is negligible the drops are
      collectively malicious.

    The validator runs at fixed parameters: a 0.3 s in-flight guard
    before each round's end, significance alpha = 1e-4 (alarm when
    P(RED explains the drops) < alpha), a 6000 B drift margin (a drop
    is individually certain only when the replayed EWMA is at least
    this far below min_th and the replayed queue at least this far from
    the limit) and 3 warm-up rounds that never alarm.  Only the round
    length varies. *)

type loss = {
  fp : int64;
  size : int;
  flow : int;
  time : float;
  red_prob : float;   (** replayed RED drop probability at the loss *)
  avg : float;        (** replayed EWMA at the loss *)
  certain : bool;     (** RED could not have dropped this packet *)
}

type report = {
  round : int;
  start_time : float;
  end_time : float;
  arrivals : int;
  departures : int;
  losses : loss list;
  fabricated : int;
  expected_red_drops : float;  (** sum of replayed drop probabilities *)
  tail_probability : float;    (** P(RED drops >= observed) *)
  cumulative_observed : int;   (** drops since learning ended *)
  cumulative_expected : float; (** RED expectation since learning ended *)
  cumulative_tail : float;     (** P(RED explains the whole history) *)
  suspect_flows : int list;
      (** flows whose cumulative drops exceed RED's expectation beyond the
          Bonferroni-corrected significance — targeted victims *)
  alarm : bool;
  learning : bool;
}

type t

val deploy :
  net:Netsim.Net.t ->
  rt:Topology.Routing.t ->
  router:int ->
  next:int ->
  params:Netsim.Red.params ->
  ?tau:float ->
  unit ->
  t
(** Install the RED validator on queue ⟨router → next⟩, validating every
    [tau] seconds (default 2 s); [params] are the
    public RED parameters of that queue (§6.5.2 assumes they are
    announced like link bandwidths).  The neighbours predict forwarding
    by single shortest path from [rt]. *)

val reports : t -> report list
val alarms : t -> report list
