(** Protocol-faulty (Byzantine) control-plane adversaries (§2.2, App. B/C).

    A traffic-faulty router drops or modifies packets; a {e
    protocol-faulty} one lies {e inside the detection protocol itself}.
    This module models the four control-plane attacks the dissertation's
    α-accuracy proof must survive, as deterministic transformations on
    the summaries a router submits each validation round:

    - {b framing}: a segment terminal inflates its sent-summary with
      fabricated fingerprints so the honest interior router appears to
      have dropped them;
    - {b equivocation}: a router reports different summaries to
      different peers in the same round;
    - {b muting}: a router refuses participation from some instant on,
      exhausting its peers' {!Ctrl} retry budgets;
    - {b stalling}: a router acknowledges just under the timeout,
      consuming nearly the whole retry budget without ever tripping it.

    Everything is a pure function of (seed, router, peer, round), so a
    run with a Byzantine plan is replay-deterministic, exactly like the
    benign fault machinery.

    {b Unforgeability is by construction}: claimed summary additions
    must carry the {e origin router's} signature over the fingerprint
    (the per-packet origin MAC of §2.1.5), and adversary code can only
    sign through the {!Crypto_sim.Keyring} under its own id.  A hardened
    verifier therefore rejects every fabricated entry; the [hardened
    = false] mode turns verification off to measure what framing does to
    an unhardened detector. *)

type role =
  | Framer of { victim : int; extras : int }
      (** inflate summaries about [victim]'s segments with [extras]
          fabricated fingerprints per round, and under-report received
          traffic through [victim] by the same count *)
  | Equivocator
      (** submit a peer-dependent summary: one fingerprint pruned for
          one peer and not the other *)
  | Mute of { from : float }
      (** refuse all control-plane participation from time [from] *)
  | Staller of { margin : float }
      (** delay every ack to [margin] of the peer's total retry budget,
          in [0,1) — just under the timeout *)

type stats = {
  framing_attempts : int;
      (** rounds in which a framer submitted fabricated entries *)
  forgeries_rejected : int;
      (** fabricated summary entries whose origin MAC failed *)
  forgeries_accepted : int;
      (** fabricated entries folded into a summary (unhardened mode
          only; always 0 when hardened) *)
  equivocations : int;  (** cross-peer digest mismatches detected *)
  disputes : int;
      (** threshold-crossing rounds that went to corroboration instead
          of alarming directly *)
  mute_refusals : int;  (** corroboration requests a mute router ignored *)
}

type t

val create :
  ?hardened:bool -> seed:int -> n:int -> roles:(int * role) list -> unit -> t
(** A Byzantine plan over routers [0 .. n-1].  [roles] assigns at most
    one role per router (later entries win).  [hardened] (default
    [true]) controls whether verifiers check origin MACs; the [false]
    mode exists only to measure the unhardened baseline.  Raises
    [Invalid_argument] on an out-of-range router or victim, a
    non-positive [extras], or a [margin] outside [0,1). *)

val routers : t -> int list
(** Routers with a Byzantine role, ascending — the oracle's
    protocol-faulty ground truth. *)

val role : t -> int -> role option
val hardened : t -> bool

val mute_active : t -> router:int -> now:float -> bool
(** True when [router] has a [Mute] role whose [from] has passed. *)

val stall_margin : t -> router:int -> float option

(** {1 Claims}

    A {e claim} is what a router tells a peer its round summary was:
    the summary itself plus any {e extras} — fingerprints it asserts
    beyond what it provably observed, each carrying an origin id and an
    origin-MAC tag. *)

type extra = {
  fp : int64;
  origin : int;   (** the router the claimant says sourced the packet *)
  tag : Crypto_sim.Keyring.signature;  (** origin's SipHash signature over [fp] *)
}

val summary_claim :
  t ->
  claimant:int ->
  peer:int ->
  segment:int list ->
  round:int ->
  Summary.t ->
  Summary.t * extra list
(** What [claimant] reports to [peer] about [segment] this round.
    Honest claimants return the truth unchanged with no extras.  A
    framer whose victim lies on [segment] returns the truth plus
    [extras] fabricated entries (tags it cannot validly produce) when
    reporting traffic {e into} the victim, and a copy with fingerprints
    pruned when reporting traffic {e out of} it.  An equivocator
    returns a copy with one peer-dependent fingerprint pruned.  The
    truthful summary is never mutated. *)

val sign_extra : t -> origin:int -> fp:int64 -> extra
(** A {e legitimately} signed extra (the origin really vouches for the
    fingerprint) — used by tests to pin that screening accepts genuine
    tags and rejects only forgeries. *)

val screen :
  t ->
  ?probe:Netsim.Probe.t ->
  ?time:float ->
  claimant:int ->
  summary:Summary.t ->
  extras:extra list ->
  unit ->
  int
(** Verify each extra's tag against its claimed origin.  Entries that
    verify are folded into [summary]; forgeries are dropped, counted in
    {!stats}, and — with [probe] — journaled as a ["forgery_rejected"]
    fault record and traced on the "faults" track.  Returns the number
    rejected.  With [hardened = false] every extra is folded in and
    counted as accepted. *)

val claim :
  t ->
  ?probe:Netsim.Probe.t ->
  time:float ->
  claimant:int ->
  peer:int ->
  segment:int list ->
  round:int ->
  Summary.t ->
  Summary.t
(** The summary a verifier ends up judging: {!summary_claim}, then, when
    the claim carries extras, {!screen} of those extras (journaled at
    [time] with [probe]) into a copy of it.  Honest claimants get
    [truth] itself back; [truth] is never mutated.  A router that
    broadcasts one signed summary to every peer (Pi2_live's consensus)
    claims with [~peer:(-1)]. *)

val digest : Summary.t -> int64
(** Order-independent fingerprint-set digest — what peers compare to
    detect equivocation without shipping whole summaries twice. *)

val note_dispute : t -> unit
val note_equivocation : t -> unit
val note_mute_refusal : t -> unit
(** Detector-side bookkeeping hooks feeding {!stats}. *)

val stats : t -> stats
