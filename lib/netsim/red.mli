(** Random Early Detection queue (§6.5.1).

    Classic RED (Floyd & Jacobson): an EWMA of the queue size drives a
    probabilistic early drop between two thresholds, with the standard
    uniformization by the count of packets since the last drop — the
    "random number generated during the last packet drop" construction of
    Fig 6.10.  The deterministic parts of the algorithm ([update_avg],
    [early_drop_probability]) are exposed as pure functions so the
    Protocol χ validator can replay them from neighbours' traffic
    information; only the coin flips are private to the router. *)

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

type t

val create : ?params:params -> rng:Random.State.t -> unit -> t
(** Fresh RED queue.  Raises [Invalid_argument] on inconsistent
    thresholds. *)

val params : t -> params
val occupancy : t -> int
val avg : t -> float
(** Current EWMA of the queue size in bytes. *)

val is_empty : t -> bool
val length : t -> int

type verdict = [ `Enqueued | `Early_drop | `Forced_drop ]

val enqueue : t -> now:float -> link_bw:float -> Packet.t -> verdict
(** Process an arrival: updates the EWMA, applies the early-drop rule,
    then the physical limit.  [link_bw] scales the idle-time decay. *)

val dequeue : t -> now:float -> Packet.t option
(** Remove the head packet, recording the idle start if emptied. *)

val dequeue_exn : t -> now:float -> Packet.t
(** {!dequeue} without the option box; the queue must not be empty. *)

(* Pure replay functions for the validator: *)

val decay_avg : params -> avg:float -> idle:float -> link_bw:float -> float
(** EWMA after an idle period. *)

val update_avg : params -> avg:float -> occupancy:int -> float
(** EWMA after an arrival sees [occupancy] bytes queued. *)

val early_drop_probability : params -> avg:float -> count:int -> float
(** The uniformized early-drop probability for the arriving packet given
    the EWMA and the packets-since-last-drop counter (0 below min_th, 1
    at/after max_th — or after 2*max_th for gentle RED). *)
