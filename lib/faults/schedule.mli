(** A declarative, seed-deterministic fault plan.

    A schedule lists the {e benign} faults a run will experience —
    link failures and repairs, router crashes and restarts, lossy
    control-plane links, bounded clock skew — separated from any
    adversary script.  The split is the point: the review literature
    (Edemacu et al.) identifies benign-loss confusion as the dominant
    false-accusation source in packet-drop detectors, so the robustness
    oracle needs an unambiguous record of which anomalies were injected
    on purpose and were {e not} malice.

    A schedule can also script {e protocol-faulty} (Byzantine)
    control-plane behaviour — routers that lie inside the detection
    protocol itself rather than merely dropping packets: framing an
    honest neighbour with forged summary entries, equivocating between
    peers, muting to exhaust retry budgets, stalling acks just under
    the timeout.  These are the §2.2 / Appendix B adversaries the
    α-accuracy guarantee must survive.

    Schedules have a textual s-expression form, one form per fault:

    {v
    # ring8 churn plan
    (seed 42)
    (link-down 0 1 at 3.0)
    (link-up 0 1 at 6.0)
    (crash 3 at 10.0)
    (restart 3 at 15.0)
    (msg-loss 0 1 prob 0.2)
    (msg-dup 0 1 prob 0.05)
    (msg-reorder 0 1 prob 0.1 delay 0.05)
    (clock-skew 2 skew 0.004)
    # protocol-faulty (Byzantine) roles
    (byz-frame 1 victim 2 extras 4)
    (byz-equivocate 5)
    (byz-mute 6 from 10)
    (byz-stall 7 margin 0.9)
    v}

    [#] starts a comment running to end of line.  Everything is
    deterministic: the seed keys the control-channel coins and the
    Byzantine claim transformations, and timed actions fire at exactly
    the written instants. *)

type action =
  | Link_down of { src : int; dst : int; at : float }
      (** fail the directed link at time [at] *)
  | Link_up of { src : int; dst : int; at : float }
  | Crash of { router : int; at : float }
      (** fail-stop: every link into and out of the router goes down *)
  | Restart of { router : int; at : float }
  | Msg_loss of { src : int; dst : int; prob : float }
      (** control-plane loss probability on the (src, dst) channel *)
  | Msg_dup of { src : int; dst : int; prob : float }
  | Msg_reorder of { src : int; dst : int; prob : float; delay : float }
  | Clock_skew of { router : int; skew : float }
      (** constant offset of the router's local clock, seconds *)
  | Byz_frame of { router : int; victim : int; extras : int }
      (** protocol-faulty: [router] forges [extras] summary entries per
          round to frame its honest neighbour [victim] *)
  | Byz_equivocate of { router : int }
      (** protocol-faulty: different summaries to different peers *)
  | Byz_mute of { router : int; from : float }
      (** protocol-faulty: refuse all control-plane participation from
          time [from], exhausting peers' retry budgets *)
  | Byz_stall of { router : int; margin : float }
      (** protocol-faulty: ack just under the timeout, consuming
          [margin] of the peer's total retry budget, in [0,1) *)

type t = { seed : int; actions : action list }

val empty : t
(** Seed 1, no actions. *)

val to_string : t -> string
(** Canonical textual form; [of_string] inverts it exactly. *)

val of_string : string -> (t, string) result
(** Parse the textual form.  Errors carry the line {e and column} of
    the offending atom plus the atom itself — ["line 2, column 14:
    time: expected a number, got \"soon\""] — never a bare failure. *)

val load : string -> t
(** Read and parse a schedule file.  Raises [Invalid_argument] with the
    parse error (or the system error) on failure. *)

val validate : graph:Topology.Graph.t -> t -> (unit, string) result
(** Check the schedule against a topology: nodes in range, link
    actions name existing directed links, times non-negative and
    finite, probabilities in [0,1], non-negative reorder delay and
    finite skew; Byzantine roles name in-range routers, a framer never
    frames itself, extras are positive and stall margins lie in
    [0,1). *)

val validate_exn : graph:Topology.Graph.t -> t -> unit
(** Like {!validate} but raises [Invalid_argument]. *)

val timed : t -> action list
(** The link/crash actions carrying a time, sorted by time (stable for
    equal times, preserving schedule order). *)

val max_concurrent_outages : t -> int
(** The largest number of simultaneously open down/crash windows, a
    link flap and a crash each counting once.  Windows never closed by
    a matching up/restart stay open to the end.  This is what a chaos
    budget bounds. *)

val crash_count : t -> int
(** Total number of [Crash] actions. *)

val byzantine_count : t -> int
(** Distinct routers with a protocol-faulty ([Byz_*]) role. *)
