(** Protocol Π2 at packet level (§5.1 on the simulator).

    Every router of every monitored 3-path-segment collects a summary of
    the traffic it forwarded along the segment; each round the summaries
    are exchanged by (simulated) consensus — signed, so a protocol-faulty
    router can lie about its own summary but cannot forge another's —
    and every correct router evaluates TV pairwise.  A failing adjacent
    pair is suspected by all correct routers: precision 2, against the
    k = 1 adversary the Fatih deployment targets.

    The consensus layer is modelled as reliable delivery of
    per-router-signed summaries (the abstraction of Fig 5.1); a
    misreporting router substitutes its own summary through
    [set_misreport].

    The per-hop summaries come from the shared segment collector
    ({!Seg_index}), as {!Fatih}'s do; Π2's own per-segment state is the
    previous round's interior summary (judging the pair (x, b)), its
    refused-submission streak and the fail-stop mark. *)

type detection = {
  time : float;
  pair : Topology.Graph.node * Topology.Graph.node;
      (** the suspected 2-path-segment *)
  segment : Topology.Graph.node list;  (** the monitored segment it came from *)
  missing : int;
  fabricated : int;
}

type t

val deploy :
  net:Netsim.Net.t ->
  rt:Topology.Routing.t ->
  ?probe:Netsim.Probe.t ->
  ?ctrl:Ctrl.t ->
  ?byz:Byz.t ->
  unit ->
  t
(** Monitor every 3-segment of the routed paths with per-position
    summaries, validating every 5 s (τ) with a 2% loss tolerance; a
    segment-round carrying fewer than 20 packets is not judged.  Each
    adjacent pair is judged by [Validation.tv ~prev], [prev] being the
    pair's upstream summary of the previous round.

    With [probe], every failing pair is journaled as an alarming
    {!Netsim.Probe.verdict} suspecting exactly that pair — precision 2
    is α-safe by construction, because a failing adjacent pair always
    contains the router whose submission broke conservation.

    With [ctrl], the interior router's consensus submission rides that
    lossy channel under {!Ctrl.default_retry}: a timed-out submission
    {e degrades} the round (nothing is judged on a missing story), and
    {!Ctrl.mute_rounds} consecutive refusals judge the interior
    {b fail-stop} — a non-alarming verdict and no further judgment of
    the segment.

    With [byz], each submission is the router's {e claim} ({!Byz.claim}),
    with asserted extras screened against their origin MACs before
    validation — consensus submissions are signed, so a hardened run
    rejects every forged entry.  Consensus broadcasts one signed summary
    per router, which makes equivocation structurally impossible here:
    the claim is keyed on a single pseudo-peer. *)

val set_misreport :
  t ->
  router:Topology.Graph.node ->
  (segment:Topology.Graph.node list -> pos:int -> Summary.t -> Summary.t) ->
  unit
(** Make a router protocol-faulty: the function rewrites the summary it
    submits to consensus for each segment (receives the truthful one). *)

val detections : t -> detection list
(** All suspected 2-path-segments, oldest first, deduplicated per
    round. *)

val suspected_pairs : t -> (Topology.Graph.node * Topology.Graph.node) list
(** Distinct pairs suspected so far. *)

val rounds_degraded : t -> int
(** Segment-rounds skipped because the interior's consensus submission
    exhausted its [ctrl] retry budget. *)

val rounds_excused : t -> int
(** Segment-rounds skipped because a segment edge observably failed —
    packets dropped on a downed link during the round, or the link
    still down at judgment time.  The link-state flood already
    announced the failure, so the conservation gap it opens is not
    evidence against either adjacent pair — excusing it is what keeps
    α-accuracy intact under benign churn. *)
