(** Random Early Detection queue (§6.5.1).

    Classic RED (Floyd & Jacobson): an EWMA of the queue size drives a
    probabilistic early drop between two thresholds, with the standard
    uniformization by the count of packets since the last drop — the
    "random number generated during the last packet drop" construction of
    Fig 6.10.  The deterministic parts of the algorithm ({!decay_avg},
    {!update_avg}, {!early_drop_probability}) are exposed over a
    {!state} so the Protocol χ validator can replay them from
    neighbours' traffic information; only the coin flips are private to
    the router. *)

type params = {
  limit_bytes : int;   (** physical queue limit *)
  min_th : float;      (** EWMA threshold where early drops begin, bytes *)
  max_th : float;      (** EWMA threshold where drops become certain *)
  max_p : float;       (** drop probability as the EWMA reaches max_th *)
  wq : float;          (** EWMA weight *)
  mean_pkt_size : int; (** for idle-time decay of the EWMA *)
  gentle : bool;       (** gentle RED: between max_th and 2*max_th the
                           drop probability ramps from max_p to 1 instead
                           of jumping *)
}

val default_params : params
(** limit 64000 B, min_th 30000 B, max_th 60000 B, max_p 0.1, wq 0.002,
    mean packet 1000 B, not gentle — the scale of the Emulab RED
    experiments. *)

type state = {
  mutable avg : float;         (** EWMA of the queue size, bytes *)
  mutable idle_since : float;  (** when the queue last emptied *)
  mutable drop_p : float;      (** set by {!early_drop_probability} *)
}
(** RED's replayable state, as the queue keeps it and a validator
    replays it.  A float-only record: the functions below update it in
    place, so replaying an arrival boxes no float. *)

type t

val create : ?params:params -> rng:Random.State.t -> unit -> t
(** Fresh RED queue.  Raises [Invalid_argument] on inconsistent
    thresholds. *)

val params : t -> params
val occupancy : t -> int
val avg : t -> float
(** Current EWMA of the queue size in bytes: the queue's [state.avg]. *)

val is_empty : t -> bool
val length : t -> int

type verdict = [ `Enqueued | `Early_drop | `Forced_drop ]

val enqueue : t -> clock:Sim.fbox -> link_bw:float -> Packet.t -> verdict
(** Process an arrival at [clock.f]: updates the EWMA, applies the
    early-drop rule, then the physical limit.  [link_bw] scales the
    idle-time decay. *)

val dequeue : t -> clock:Sim.fbox -> Packet.t option
(** Remove the head packet, recording the idle start ([clock.f]) if
    emptied. *)

val dequeue_exn : t -> clock:Sim.fbox -> Packet.t
(** {!dequeue} without the option box; the queue must not be empty. *)

(** {2 Replay}

    The steps the queue takes, over a {!state} the caller owns. *)

val decay_avg : params -> state -> now:Sim.fbox -> link_bw:float -> unit
(** Decay [avg] over the idle period from [idle_since] to [now.f] (no
    change when that period is not positive). *)

val update_avg : params -> state -> occupancy:int -> unit
(** The EWMA after an arrival sees [occupancy] bytes queued. *)

val early_drop_probability : params -> state -> count:int -> unit
(** Set [drop_p] to the uniformized early-drop probability for the
    arriving packet given [avg] and the packets-since-last-drop counter
    (0 below min_th, 1 at/after max_th — or after 2*max_th for gentle
    RED).  With [count = 0] it is the base probability clipped to
    [0, 1]. *)
