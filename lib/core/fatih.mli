(** Fatih (§5.3): the packet-level Πk+2 prototype with response.

    Deploys Protocol Πk+2 with k = 1 over a simulated network: every
    3-path-segment of the routed paths is monitored by its two terminal
    routers, which collect conservation-of-content summaries per τ = 5 s
    round and validate them.  A failed validation raises an alert that
    feeds the {!Response} engine, reproducing the Fig 5.7 timeline
    (attack → detection within one round → rerouting after the OSPF
    timers).

    The per-hop summaries come from the shared segment collector
    ({!Seg_index}), as {!Pi2_live}'s do; Fatih's own per-segment state
    is only its exchange-timeout and heartbeat streaks and the fail-stop
    mark. *)

type exchange =
  | Full_sets  (** each end ships its whole fingerprint summary *)
  | Reconcile  (** Appendix A set reconciliation: O(difference) words *)

type config = {
  thresholds : Validation.thresholds;  (** TV tolerance *)
  policy : Summary.policy;
      (** the conservation policy of the summaries: [Content] (default)
          catches loss/modification/fabrication; [Order] additionally
          reordering; [Timeliness] additionally delaying (§2.4.1).
          [Flow] is rejected by {!deploy} *)
  exchange : exchange;
      (** how segment ends compare summaries; affects
          {!words_exchanged}, not detections *)
}

val default_config : config
(** 2% loss tolerance, Content policy, full-set exchange.  The round
    (τ = 5 s), the 20-packet floor below which a segment's round is not
    judged and the {!Response} timers are fixed. *)

type detection = {
  time : float;
  segment : Topology.Graph.node list;
  detected_by : Topology.Graph.node * Topology.Graph.node;  (** terminal routers *)
  missing : int;
  fabricated : int;
  reordered : int;     (** order violations (Order/Timeliness policies) *)
  max_delay : float;   (** worst per-packet transit delay (Timeliness) *)
  sent : int;
}

type t

val deploy :
  net:Netsim.Net.t ->
  rt:Topology.Routing.t ->
  ?config:config ->
  ?probe:Netsim.Probe.t ->
  ?ctrl:Ctrl.t ->
  ?byz:Byz.t ->
  unit ->
  t
(** Start monitoring every 3-segment of the current routed paths.  The
    network must still be using plain routing from [rt] at deploy time;
    after detections the engine installs policy routing itself.  With
    [probe], each detection is journaled as a typed
    {!Netsim.Probe.verdict} accusing the segment's interior router.

    Each round judges [Validation.tv ~prev] of the segment's summaries,
    [prev] being the previous round's sent summary: packets it announced
    that arrive this round crossed the round boundary.  Raises
    [Invalid_argument] for the [Flow] policy, whose counters cannot
    tell those boundary packets from losses or fabrications.

    With [ctrl], every per-segment summary exchange rides that lossy
    control-plane channel under {!Ctrl.default_retry}:
    a timed-out exchange {e degrades} the round — the summaries carry
    over and are compared next round — instead of wedging it or
    producing an accusation.  Rounds in which a segment edge visibly
    dropped packets with its link down are likewise excused rather than
    judged.

    With [byz], the protocol hardens itself against control-plane lies
    (and validation runs on what the terminals {e claim}, so framing
    and equivocation actually reach the verifier):

    - claimed summary extras are screened against their origin MACs —
      a forged entry is rejected, counted, and journaled as a
      ["forgery_rejected"] fault before validation ever sees it;
    - a threshold-crossing round is {e corroborated} before alarming:
      the interior router's own forwarded-claim (what it forwarded to
      the closing terminal: the segment's received summary, whose
      fingerprints it also computes) splits the segment into
      two conservation halves, and the verdict names the half — a
      {e pair} of routers that provably contains a faulty one — or the
      interior alone when its claims to the two terminals disagree
      (equivocation);
    - a disagreement that no half of the segment corroborates degrades
      the round with a non-alarming verdict instead of accusing;
    - {!Ctrl.mute_rounds} consecutive exchange timeouts or refused interior
      heartbeats judge the silent router {b fail-stop}: the segment is
      excised via the response engine under a non-alarming verdict.

    Every hardening decision is a pure function of (plan seed, segment,
    round), so Byzantine runs stay replay-deterministic. *)

val detections : t -> detection list
(** All alerts raised, oldest first. *)

val response : t -> Response.t
(** The response engine (for its update timeline). *)

val monitored_segments : t -> Topology.Graph.node list list

val fingerprints_observed : t -> int
(** Total fingerprint insertions across all segment summaries — the
    §5.3.2 per-packet monitoring overhead.  A hop that lands in several
    summaries counts once per summary, though the fingerprint itself
    (SipHash) is computed once per hop, and not at all for a hop that
    lands in none.  With [byz], a hop that closes a segment counts once
    more: the interior router's MAC work on its own egress, which its
    claim shares with the received summary. *)

val words_exchanged : t -> int
(** Total 64-bit words of summary state shipped between segment ends
    over all validation rounds (full-set exchange; see `mrdetect comm`
    for the reconciliation alternative).  Retransmissions over a lossy
    [ctrl] channel count each attempt, including the attempts of an
    exchange that finally timed out and degraded its round. *)

val rounds_degraded : t -> int
(** Segment-rounds whose summary exchange exhausted its retry budget
    and carried state over instead of judging. *)

val rounds_excused : t -> int
(** Segment-rounds skipped because a segment edge observably failed
    (benign link-down losses are not evidence of malice). *)
