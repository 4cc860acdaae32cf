(** The one per-hop segment collector of the live Πk+2 deployments
    ({!Fatih} and {!Pi2_live}).

    Both monitor every 3-path-segment ⟨a, x, b⟩ of the routed paths and
    summarise, per round, the traffic a sends into the segment and the
    traffic x sends on to b.  For each delivered hop the collector finds
    the segment the hop opens and the one it closes on the packet's
    predicted path (§4.1 predictability), resolved once per (source,
    destination) per routing generation into integer positions, so the
    per-hop path does no list building and no list-keyed lookup; it
    fingerprints the packet once and adds it to those segments'
    summaries.  Resolved routes are kept in one row per source, made on
    the source's first packet (no n² table), and a route's segments are
    found by an integer key, not a router list.  Link-down drops on a
    segment edge mark the segment's round excused.  Both lookups are
    flat: open-addressed int tables from ⟨a, x, b⟩ to the segment's
    number and from a link to a chain of the segments it is an edge of,
    built once at {!create}.

    The collector owns every summary's lifetime.  Each slot starts as one
    shared, never-written empty placeholder and gets a summary of its
    own on its first observation, so an idle segment costs no summary.
    {!rotate} keeps the round that just ended as {!prev_sent} and
    {!prev_received} and retires the round before it: those two
    summaries are cleared in place ({!Summary.clear}) and collect the
    segment's next round, so a busy segment stops allocating summaries
    once its four have grown.

    {b Lifetime.}  A summary read through {!sent}, {!received},
    {!prev_sent} or {!prev_received} is not modified by anything but
    {!observe} filling the current round, until the {!rotate} that
    retires it (the second one after its round ends) or a {!reroute}:
    a caller may hold one that long, and no longer.  The protocols keep
    only their own judgment state (the ['st] of each segment). *)

type 'st t

val create :
  rt:Topology.Routing.t ->
  key:Crypto_sim.Siphash.key ->
  policy:Summary.policy ->
  (unit -> 'st) ->
  'st t
(** Index every 3-segment of [rt]'s routed paths
    ({!Topology.Segments.pik2_family} with [k = 1]), giving each a
    state built by the function and empty traffic.  Packets are
    fingerprinted under [key]; summaries follow [policy].  Segment [i]
    is the family's [i]-th: the order in which the deployments judge
    them, which fixes the order of verdicts raised at one instant. *)

val states : 'st t -> 'st array
(** Per-segment protocol state, by segment number. *)

val segments : 'st t -> Topology.Graph.node list array
(** The segments themselves, by segment number. *)

val sent : 'st t -> int -> Summary.t
(** What the first terminal of segment [i] sent into it this round. *)

val received : 'st t -> int -> Summary.t
(** What the interior of segment [i] forwarded to its last terminal this
    round. *)

val prev_sent : 'st t -> int -> Summary.t
(** Last round's {!sent}: a packet it announced that arrives this round
    crossed the round boundary. *)

val prev_received : 'st t -> int -> Summary.t
(** Last round's {!received} (Π2 judges the pair (x, b) against it). *)

val excused : 'st t -> int -> bool
(** Whether an edge of segment [i] dropped packets with its link down
    this round. *)

type entered = Neither | Sent | Received | Both
(** Which summaries a hop entered: the [sent] of the segment it opens,
    the [received] of the one it closes, both or neither. *)

val observe : 'st t -> Netsim.Net.iface_event -> entered
(** Collect one interface event.  A [Delivered] hop is fingerprinted
    once (not at all when it enters no summary) and added to the
    summaries it enters; a [Drop_link_down] marks every segment having
    that directed link as an edge excused and enters nothing; any other
    kind is ignored. *)

val rotate : 'st t -> int -> unit
(** End segment [i]'s round: [sent] and [received] become [prev_sent]
    and [prev_received], the summaries those held are cleared in place
    to collect the next round, and the excuse is cleared. *)

val edge_down : 'st t -> net:Netsim.Net.t -> int -> bool
(** Whether an edge of segment [i] is down now. *)

val reroute : 'st t -> Topology.Policy.t -> unit
(** Predict paths from the policy from now on: every route is forgotten
    and recomputed on its next use (§5.3.1), and all collected traffic,
    [prev_sent] and [prev_received] included, is dropped — it was
    attributed under the old tables.  Summaries read before the reroute
    are left as they were. *)
