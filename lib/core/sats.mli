(** Secure Split Assignment Trajectory Sampling (§3.9).

    A centralized backend assigns every pair of routers on a path a
    {e secret} hash range; each router reports the fingerprints of the
    packets falling into its assigned ranges; the backend compares the
    two reports of each pair and suspects the span between the first
    inconsistent pair.  Because the assignment is secret, a compromised
    router cannot restrict its attack to unsampled packets — dropping
    [secrecy_matters] shows the evasion that becomes possible when the
    ranges leak. *)

type verdict = {
  suspected : (int * int) option;
      (** positions bounding the first inconsistent pair *)
  sampled_per_router : int;  (** fingerprints each router reported *)
}

val run :
  path_len:int ->
  packets:int ->
  fraction:float ->
  drops:(position:int -> fp:int64 -> bool) ->
  ?ranges_leaked:bool ->
  unit ->
  verdict
(** Simulate one measurement interval on a path: [packets] packets enter
    at position 0; the router at each transit position may drop a packet
    ([drops ~position ~fp]); every (i, j) pair with i < j samples an
    expected [fraction] of the traffic under its own secret key.  With
    [ranges_leaked] the adversary knows every sampling decision and its
    [drops] predicate is only consulted for unsampled packets (perfect
    evasion).  Deterministic: the pair keys derive from fixed labels. *)

val evading_dropper : rate:float -> position:int -> (position:int -> fp:int64 -> bool)
(** A dropper at [position] discarding roughly [rate] of the traffic
    (keyed coin per packet). *)
