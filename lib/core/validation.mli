(** The traffic validation predicate TV (§4.2.1, §2.4.1).

    TV(π, info(ri), info(rj)) decides whether the traffic information two
    routers collected about a monitored region is consistent.  Real
    networks lose a few packets benignly, so TV takes thresholds: a
    verdict only fails when the discrepancy exceeds them (the static
    threshold whose fundamental unsoundness Chapter 6 then demonstrates
    and Protocol χ repairs). *)

type thresholds = {
  max_loss_fraction : float;   (** tolerated missing-packet fraction *)
  max_fabricated : int;        (** tolerated unexplained arrivals *)
  max_reordered : int;         (** tolerated reordering (|S| - LCS) *)
  max_delay : float;           (** tolerated per-packet forwarding delay, s *)
}

val strict : thresholds
(** Zero tolerance on every dimension. *)

val lenient : ?max_loss_fraction:float -> unit -> thresholds
(** Zero tolerance except a loss allowance (default 2%) — the classic
    static-threshold configuration. *)

type verdict = {
  ok : bool;                (** [conserved], in order and in time *)
  conserved : bool;
      (** loss and fabrication within [max_loss_fraction] and
          [max_fabricated] *)
  missing : int64 list;     (** sent but not received *)
  fabricated : int64 list;
      (** received but neither sent nor announced by [prev] *)
  reordered : int;          (** positions out of order (|S| - LCS) *)
  max_delay_seen : float;   (** largest per-packet latency (Timeliness) *)
}

val tv :
  ?thresholds:thresholds ->
  ?prev:Summary.t ->
  sent:Summary.t ->
  received:Summary.t ->
  unit ->
  verdict
(** Evaluate conservation of traffic between an upstream and a downstream
    summary.  The checks applied depend on the summaries' policy (both
    must share one; raises [Invalid_argument] otherwise):
    [Flow] compares counters only, [Content] adds identity, [Order] adds
    ordering, [Timeliness] adds delay.

    [prev] is the previous round's sent summary, passed by the live
    deployments whose rounds cut a packet stream in flight.  A received
    fingerprint that [prev] announced crossed the round boundary and is
    not fabricated: it is dropped from [fabricated] before the
    thresholds apply, so [conserved] and [ok] judge the filtered list.
    [Flow] summaries keep no identities, so [prev] does not change their
    verdict.  The abstract engines ({!Pi2}, {!Pik2}) judge whole rounds
    and pass no [prev].

    [conserved] is the verdict on loss and fabrication alone; [ok] adds
    [max_reordered] and [max_delay].  [Content] summaries keep no order
    or times, so under non-negative thresholds the two agree there. *)

val lcs_length : int64 array -> int64 array -> int
(** Longest common subsequence length — the reordering metric of §2.2.1
    (Piratla et al.): reordering = |S| - LCS(S, F). *)
