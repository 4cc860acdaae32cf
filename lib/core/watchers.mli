(** The WATCHERS baseline (§3.1): per-router conservation of flow.

    Each router keeps, per neighbour and per destination, counters of the
    traffic it sent to / received from that neighbour; counter snapshots
    are flooded and every router runs (1) the validation phase — do the
    two ends of each link agree? — and (2) the conservation-of-flow test —
    does traffic entering a router leave it?

    We reproduce both the protocol and its §3.1 flaw: two consorting
    faulty routers can keep their shared-link counters inconsistent and
    simply not accuse each other, which correct routers ignore ("they
    will detect each other").  The [improved] variant applies the
    dissertation's fix: a correct router that observes an inconsistent
    link and receives no accusation from its ends detects that link
    itself. *)

type counters
(** Flooded snapshot: for every directed link (x, y) and destination d,
    [sent x y d] as claimed by x and [received x y d] as claimed by y. *)

val collect :
  rt:Topology.Routing.t ->
  drops:(Topology.Graph.node -> next:Topology.Graph.node -> bool) ->
  lies:(Topology.Graph.node ->
        [ `Honest
        | `Silent  (** honest counters but never accuses anyone *)
        | `Inflate_sent of Topology.Graph.node  (** claim full forwarding to that neighbour *)
        | `Match_upstream of Topology.Graph.node (** corroborate that upstream's claim *) ]) ->
  unit ->
  counters
(** Simulate one interval: every routed path carries 20 packets; a
    router discards all transit packets it would
    forward to a neighbour for which [drops router ~next] holds (the
    §3.1 scenario drops in one direction only); [lies] lets faulty
    routers misreport. *)

type detection =
  | Bad_link of Topology.Graph.node * Topology.Graph.node
      (** validation-phase disagreement on a link *)
  | Bad_router of Topology.Graph.node
      (** conservation-of-flow failure *)

val detect : ?improved:bool -> ?threshold:int -> counters -> detection list
(** Run validation + CoF over a snapshot.  With [improved = false]
    (default) links whose two ends are both willing to stay silent are
    NOT reported when neither end accuses the other — the original
    protocol's behaviour, exhibiting the flaw.  With [improved = true]
    such links are reported by the bystanders.  [threshold] is the CoF
    slack in packets (default 0). *)

val counters_per_router : Topology.Graph.t -> int array
(** The §5.1.1 state comparison: 7 counters per neighbour per destination
    for every router. *)
