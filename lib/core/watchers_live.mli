(** WATCHERS at packet level: conservation-of-flow validation over
    NetFlow-style counters collected from the simulator (§3.1 on the
    wire).

    Every router's neighbours count what they handed it and what it
    handed them; per validation round the snapshots are "flooded" and
    each router's conservation of flow is tested against a packet
    threshold — including the threshold's §6.1.1 weakness: it must
    absorb both in-flight packets at the round boundary and congestive
    losses, so a sub-threshold attacker hides. *)

type verdict = {
  round : int;
  time : float;
  deficits : (int * int) list;   (** (router, transit deficit) this round *)
  suspected : int list;          (** deficit above the threshold *)
}

type t

val deploy :
  net:Netsim.Net.t ->
  ?tau:float ->
  ?probe:Netsim.Probe.t ->
  unit ->
  t
(** Validate every router's conservation of flow each [tau] seconds
    (default 5 s), suspecting a router whose deficit in the round
    exceeds 25 packets.  With [probe], every round verdict is
    journaled as a typed {!Netsim.Probe.verdict}. *)

val verdicts : t -> verdict list
(** Per-round outcomes, oldest first. *)

val suspected_routers : t -> int list
(** Routers suspected in at least one round. *)
