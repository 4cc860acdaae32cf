(** A lossy control-plane channel with bounded retry.

    The detection protocols exchange summaries, consensus messages and
    verdicts over the same unreliable network they monitor (Amir et
    al.'s authenticated adversarial routing makes the same point: a
    detector that assumes a clean control plane wedges on the first
    lost message).  This module models that channel at the round
    abstraction level: a send either arrives, possibly duplicated or
    reordered, or is lost, and the sender retries with exponential
    backoff up to a bound.

    Outcomes are {e replay-deterministic}: each (src, dst, tag,
    attempt) tuple is hashed with a seeded SipHash coin, so the same
    schedule of sends produces the same outcomes whatever order the
    calls interleave in — the property the chaos sweeps and the
    jobs-determinism guarantee rest on. *)

type link_faults = {
  loss : float;           (** per-attempt loss probability, in [0,1] *)
  duplicate : float;      (** probability a delivered message is duplicated *)
  reorder : float;        (** probability a delivered message is held back *)
  reorder_delay : float;  (** how long a reordered message is held, seconds *)
}

val clean : link_faults
(** No loss, no duplication, no reordering. *)

type retry = {
  max_attempts : int;   (** total transmissions, >= 1 *)
  base_timeout : float; (** seconds before the first retransmission, > 0 *)
  backoff : float;      (** multiplier per further attempt, >= 1 *)
}

val default_retry : retry
(** 4 attempts, 0.25 s base timeout, doubling.

    {b Budget-exhaustion semantics.}  Attempt [i] (1-based) waits
    [base_timeout *. backoff ** (i - 1)] seconds before the next
    retransmission; under the defaults the backoff sequence is exactly
    0.25 s, 0.5 s, 1 s, 2 s.  When every attempt is lost the sender
    gives up after [max_attempts] transmissions having waited the full
    geometric sum — [Timed_out { attempts = max_attempts; waited }]
    with [waited = base_timeout *. (backoff^max_attempts - 1) /.
    (backoff - 1)], i.e. exactly 3.75 s under the defaults.  Exhaustion
    is a {e degradation} signal, never a verdict: the protocols riding
    the channel carry their round state over (fatih, pi2) and only
    after {!mute_rounds} {e consecutive} exhausted rounds judge the
    unreachable peer fail-stop — excised from routing, recorded
    non-alarming — mirroring the dissertation's §4.2.1 benign-failure
    rule that silence is never treated as malice. *)

val mute_rounds : int
(** 3: the consecutive exhausted or refused rounds after which fatih,
    pi2 and chi judge a silent peer fail-stop. *)

val segment_tag : round:int -> salt:int -> int list -> int
(** The {!send} tag of one message about a path segment in one round:
    the round number folded with the segment's routers, xor [salt].
    Each kind of per-segment message (summary exchange, heartbeat,
    consensus submission) passes its own salt, so its coins differ from
    the others'. *)

type outcome =
  | Delivered of {
      attempts : int;      (** transmissions used, 1 = first try *)
      duplicated : bool;
      extra_delay : float; (** backoff waits plus any reordering hold *)
    }
  | Timed_out of { attempts : int; waited : float }
      (** every attempt was lost; the round must degrade, not wedge *)

type stats = {
  sends : int;       (** messages offered to the channel *)
  attempts : int;    (** transmissions including retries *)
  losses : int;      (** transmissions lost in flight *)
  duplicates : int;
  reorders : int;
  timeouts : int;    (** sends that exhausted their attempts *)
  mutes : int;       (** sends refused outright by a muted endpoint *)
  stalls : int;      (** deliveries a stalling endpoint delayed *)
}

type peer_fault = {
  mute_from : float option;
      (** refuse all participation from this instant on: every send
          touching the router burns its whole retry budget and times
          out (protocol-faulty muting, exhausting peers' budgets) *)
  stall_margin : float option;
      (** acknowledge just under the timeout: deliveries succeed but
          consume this fraction (in [0,1)) of the sender's total
          backoff budget as extra delay *)
}

val no_peer_fault : peer_fault

type t

val reliable : unit -> t
(** A channel that delivers every message on the first attempt. *)

val create :
  ?seed:int ->
  ?default:link_faults ->
  ?links:((int * int) * link_faults) list ->
  unit ->
  t
(** A channel with [default] faults on every (src, dst) pair except
    those overridden in [links].  Raises [Invalid_argument] on a
    probability outside [0,1] or a negative reorder delay. *)

val set_peer_fault : t -> router:int -> peer_fault -> unit
(** Install (or, with {!no_peer_fault}, clear) a router's
    protocol-faulty behaviour on the channel.  Raises
    [Invalid_argument] on a stall margin outside [0,1) or a negative
    mute start. *)

val peer_fault : t -> router:int -> peer_fault

val send :
  t -> ?retry:retry -> ?now:float -> src:int -> dst:int -> tag:int -> unit ->
  outcome
(** Attempt to move one control message from [src] to [dst].  [tag]
    must be unique per logical message (round number folded with the
    segment identity) — it keys the deterministic coins.  [now]
    (default 0) is the sender's clock, consulted only by [mute_from]
    peer faults.  A send touching a muted endpoint times out after the
    full retry budget without flipping any coins, so surrounding sends
    see exactly the coin stream they would have seen anyway.  Raises
    [Invalid_argument] on a non-positive [max_attempts] or
    [base_timeout], or a [backoff] below 1. *)

val stats : t -> stats
(** Cumulative channel statistics since creation. *)

val set_observer : t -> (attempts:int -> ok:bool -> unit) option -> unit
(** Install (or clear) a per-send observer, invoked after every {!send}
    with the transmissions used and whether the message got through.
    The telemetry layer hangs its retry histogram here; observation
    never perturbs the channel's deterministic coins. *)
