(** The attack library (§2.2.1 threats; Chapter 6 attack scenarios).

    Builders for {!Netsim.Router.behavior} values covering every
    traffic-faulty behaviour the dissertation studies.  All of them act
    on transit packets only (terminal routers are correct for their own
    traffic, §2.1.4) and are deterministic given their seed. *)

val after : float -> Netsim.Router.behavior -> Netsim.Router.behavior
(** Gate a behaviour: act honestly before the given time (the attack
    starts mid-experiment, as in Fig 5.7). *)

val on_flows : int list -> Netsim.Router.behavior -> Netsim.Router.behavior
(** Restrict a behaviour to the victim flows; everything else is
    forwarded honestly. *)

val drop_all : Netsim.Router.behavior
(** Discard every transit packet. *)

val drop_fraction : ?seed:int -> float -> Netsim.Router.behavior
(** Discard the given fraction of transit packets, chosen by a keyed
    per-packet coin (attack 1 of §6.4.2 composes this with
    {!on_flows}). *)

val drop_when_queue_above : float -> Netsim.Router.behavior
(** Discard transit packets while the target output queue is above the
    given occupancy fraction — attacks 2/3 of §6.4.2, crafted to hide
    inside plausible congestion. *)

val drop_when_red_avg_above : float -> Netsim.Router.behavior
(** Discard while the RED average queue exceeds the given byte value —
    attacks 1/2 of §6.5.3. *)

val drop_fraction_when_red_avg_above :
  ?seed:int -> fraction:float -> avg:float -> unit -> Netsim.Router.behavior
(** Probabilistic variant — attacks 3/4 of §6.5.3. *)

val drop_syn : Netsim.Router.behavior
(** Discard transit TCP SYNs — attack 4 of §6.4.2 / attack 5 of §6.5.3,
    the smallest-footprint denial of service. *)

val modify_fraction : ?seed:int -> float -> Netsim.Router.behavior
(** Alter the payload of the given fraction of transit packets (a fixed
    XOR mask, {!Netsim.Router.Modify}). *)

val delay_fraction : ?seed:int -> delay:float -> float -> Netsim.Router.behavior
(** Hold the given fraction of transit packets for [delay] seconds
    (reordering/jitter attack). *)
