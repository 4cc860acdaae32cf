(** The centralized failure detector via active replication (§2.3,
    Fig 2.1).

    The ideal detector: an identical replica r' receives exactly the
    input traffic of the monitored router r and its output is compared
    packet for packet.  Any divergence is a detection — no thresholds, no
    statistics.  The section's two caveats are reproduced by the tests:

    - {e nondeterminism}: the replica must reproduce the router's
      scheduling exactly; processing jitter it cannot see makes it
      diverge on honest traffic (false accusations as soon as the
      jitter bound is non-zero);
    - {e resource requirement}: a full replica per router — the reason
      the dissertation replaces this with distributed traffic
      validation.

    The replica models the output queue deterministically: drop-tail
    admission, exact link-rate FIFO service. *)

type report = {
  arrivals : int;
  accused : int64 list;
      (** fingerprints the replica forwarded but the router did not —
          detections under the exact-replica ideal *)
  predicted_congestive : int;
      (** drops the replica also produced (benign congestion) *)
}

type t

val deploy :
  net:Netsim.Net.t ->
  rt:Topology.Routing.t ->
  router:int ->
  next:int ->
  unit ->
  t
(** Shadow the queue ⟨router → next⟩.  Raises [Invalid_argument] if the
    link is absent. *)

val finish : t -> report
(** Run the replica over everything observed and compare with the
    router's actual output (call once the simulation has drained). *)
