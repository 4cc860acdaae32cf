(** Traffic summaries (§2.4.1, §4.2.1).

    A summary is the per-router state [info(r, π, τ)] collected about the
    traffic that traversed a monitored region during a validation round.
    Each conservation-of-traffic policy needs a different amount of
    state:

    - {e flow}: packet/byte counters only (WATCHERS-style);
    - {e content}: a set of packet fingerprints — detects loss,
      fabrication and modification;
    - {e order}: the fingerprints as an ordered list — additionally
      detects reordering;
    - {e timeliness}: fingerprints with timestamps — additionally detects
      delaying.

    {b Layout.}  The distinct fingerprints sit in slot arrays in the
    order they were first observed: 8 bytes of one [Bytes.t] and 4 of
    another for its {!hash_fp} ([Timeliness] adds one unboxed float per
    fingerprint, [Order] and richer 8 bytes per packet).  An
    open-addressed index of 4-byte cells, kept at most half full, finds
    them: a cell holds a slot and 8 bits of the fingerprint's hash, so a
    probe reads a key only when those match.  A summary takes 20 to 28
    bytes per distinct fingerprint and holds at most 2^24 - 1.  No
    fingerprint is boxed while it is stored, looked up or compared, so a
    summary filled below a capacity it has already reached allocates
    nothing per {!observe_at} or {!observe}.

    {b Order.}  {!fingerprints}, {!nth} and {!diff} follow the order the
    stdlib [Hashtbl] (unseeded, 64 initial buckets) would give the same
    history of {!observe}s and {!remove}s: buckets double when the
    distinct count exceeds twice their number, and the list reads the
    buckets (at the final count) descending and each bucket's
    fingerprints oldest first.  A {!copy} keeps its original's bucket
    count and first-observed order, and so its order.  The order is
    derived only when something reads it: {!fingerprints} and {!nth} sort
    the slots by bucket, and {!diff} tests membership in slot order and
    sorts only the fingerprints it returns.  Byzantine claims ({!Byz})
    prune by position in this order, so it fixes their choices.  It
    does not depend on [OCAMLRUNPARAM=R]. *)

type policy = Flow | Content | Order | Timeliness

type t

val create : policy -> t
val policy : t -> policy

val observe_at : t -> Bytes.t -> int -> size:int -> clock:Netsim.Sim.fbox -> unit
(** [observe_at t src off ~size ~clock] records one forwarded packet
    whose fingerprint is the 8 bytes at [off] of [src] (native-endian,
    as {!Netsim.Packet.fingerprint_into} writes it), at time [clock.f]
    (kept under [Timeliness] only).  The fingerprint is hashed and
    compared where it lies and the time read from its box, so below a
    capacity the summary has reached this allocates nothing: the
    collector's per-hop path ({!Seg_index.observe}). *)

val observe : t -> fp:int64 -> size:int -> time:float -> unit
(** {!observe_at} for a fingerprint and a time in hand. *)

val hash_fp : int64 -> int
(** The bucket hash: [Hashtbl.hash] of the fingerprint, bit for bit,
    computed without boxing it. *)

val packets : t -> int
val bytes : t -> int

val mem : t -> int64 -> bool
(** Fingerprint membership ([false] under the [Flow] policy, which keeps
    no identities). *)

val clear : t -> unit
(** Empty the summary in place, keeping its arrays: afterwards it reads
    and orders exactly as a fresh {!create} of its policy. *)

val cardinal : t -> int
(** Distinct fingerprints held ([0] under [Flow]). *)

val fingerprints : t -> int64 list
(** Distinct fingerprints, in the order above.  Empty under [Flow]. *)

val fold : t -> init:'a -> f:('a -> int64 -> 'a) -> 'a
(** Fold over the distinct fingerprints in no specified order (today
    the order they were first observed), without building the
    {!fingerprints} order: for readers whose result does not depend on
    it, such as {!Byz.digest}. *)

val nth : t -> int -> int64
(** [nth t i] is [List.nth (fingerprints t) i], found by one traversal
    without building the list.  Raises [Invalid_argument] unless
    [0 <= i < cardinal t]. *)

val diff : ?exclude:t -> t -> t -> int64 list
(** [diff ?exclude a b] is the fingerprints of [a] held neither by [b]
    nor by [exclude], in [fingerprints a] order.  One pass over [a] that
    boxes only the fingerprints it returns. *)

val sequence : t -> int64 array
(** Fingerprints in forwarding order.  Available under [Order] and
    [Timeliness]; raises [Invalid_argument] otherwise. *)

val time_of : t -> int64 -> float option
(** Timestamp of a fingerprint ([Timeliness] only; [None] elsewhere or if
    absent). *)

val state_words : t -> int
(** Approximate per-round state footprint in 64-bit words — the quantity
    compared across protocols in §7.2. *)

val copy : t -> t
(** Independent snapshot (misreporting adversaries mutate copies),
    sized to its contents rather than to the original's capacity; it
    keeps the original's bucket count, and so its order. *)

val remove : t -> int64 -> unit
(** Delete a fingerprint (used to forge under-reports in tests).
    No-op under [Flow] apart from the counters being left unchanged. *)
