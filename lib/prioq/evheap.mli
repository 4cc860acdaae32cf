(** The simulator's event queue: a ladder queue of event descriptors
    (Tang, Goh & Thng, ACM TOMACS 2005), O(1) amortized per push and pop.

    Each element is a full event descriptor — time, tie-break key, an
    8-bit event tag, a small non-negative int operand and two uniform
    payload slots — so scheduling allocates nothing (beyond amortized
    growth) and popping fills a caller-owned {!cursor} instead of
    building options or tuples, allocating nothing.

    {b Structure.}  An event stays where it was pushed, in a
    handle-indexed node table of scalar arrays (time, key, packed
    descriptor, list link) and two payload cells per handle.  The queue
    moves only the int handle through three tiers: an unsorted {e top}
    of far-future events; up to eight {e rungs} of buckets, each bucket
    an intrusive list through the link array, a rung of n events having
    n buckets of equal width from its earliest event to the bound of
    where later pushes can land in it; and a short sorted {e bottom}
    that pops in O(1).  When the bottom runs dry the next bucket is
    sorted into it, or, holding more than 48 events with differing
    times, spawns a finer rung; a bottom that a push would take past 48
    such events becomes a rung the same way.  No move runs the GC write
    barrier: it fires twice per push (the payload cells) and twice per
    {!free} (scrubbing them).

    {b Exactness.}  Events pop in (time, key) order exactly, as from a
    binary heap; ties at equal time pop in key order, which is
    insertion order for {!push}.  A bucket index is [(x - start) * inv]
    clamped to the rung in the float domain before truncation, hence a
    monotone function of the time, so an event placed at or after a
    rung's current bucket follows everything already below it; equal
    times share a bucket and are sorted by key.  Times must not be NaN.
    Events may be pushed at any time, earlier than the last pop
    included.

    {b Allocation.}  Once the node table, the bottom and the rungs'
    bucket arrays have grown to the run's high-water marks, {!push},
    {!push_keyed}, {!pop}, {!take} and {!free} allocate nothing: floats
    live in float arrays and float-only records, cross no call as
    arguments, and the bottom is compacted in place.

    Payload slots are [Obj.t]: the scheduler's tag handlers own the
    typing discipline (each tag fixes the concrete types of both slots),
    which is what lets one monomorphic queue carry every event kind
    without per-event boxing.  Use {!nil} for unused slots.  Slots
    vacated by pops are scrubbed, so the queue never keeps a finished
    event's payloads reachable; a {!pop} cursor does until the caller
    overwrites them.

    Not thread-safe. *)

type t

type fbox = { mutable f : float }
(** Single-field float record: flat storage, so reading or writing [f]
    does not box.  Event times cross module boundaries in these: the
    dev profile compiles with [-opaque], so no cross-module call is
    inlined and every float argument would be boxed. *)

type cursor = {
  time : fbox;          (** event time (unboxed store) *)
  mutable key_out : int;(** tie-break key (sequence number) *)
  mutable tag : int;    (** event tag, [0..255] *)
  mutable iarg : int;   (** small operand, [>= 0] *)
  mutable pa : Obj.t;   (** payload slot A *)
  mutable pb : Obj.t;   (** payload slot B *)
}
(** Destination of {!pop} and {!take}.  After a {!pop} the payload
    slots keep the popped event's payloads reachable until overwritten;
    the caller should drop them ([nil]) once consumed. *)

val nil : Obj.t
(** The empty payload (the immediate [0]). *)

val cursor : unit -> cursor

val create : unit -> t
val length : t -> int

val reserve : t -> int
(** Claim the next insertion sequence number without inserting: the key
    an event pushed now by {!push} would get.  {!push_keyed} can insert
    it later, and the event then pops exactly where it would have had it
    been pushed at reservation time. *)

val push : t -> time:float -> tag:int -> iarg:int -> Obj.t -> Obj.t -> unit
(** Insert an event with the next sequence number ({!reserve}); ties at
    equal time pop in insertion order.  [tag] must fit 8 bits and [iarg]
    must be non-negative (they share a packed descriptor word). *)

val push_keyed :
  t -> at:fbox -> key:int -> tag:int -> iarg:int -> Obj.t -> Obj.t -> unit
(** Insert at time [at.f] with a caller-supplied tie-break key, a
    reserved sequence number ({!reserve}).  The time travels in a flat
    box so the call allocates nothing even where it is not inlined. *)

val pop : t -> until:float -> strict:bool -> cursor -> bool
(** Pop the minimum element into the cursor when its time is within the
    window ([< until] when [strict], [<= until] otherwise); returns
    [false] (cursor untouched) when the queue is empty or the minimum is
    beyond the window.  {!take}, the payloads copied into the cursor,
    then {!free}.  Allocates nothing. *)

(** {2 Dispatch in place} *)

val take : t -> until:float -> strict:bool -> cursor -> int
(** {!pop} without the payloads: when the minimum is within the window,
    remove it, fill the cursor's [time], [key_out], [tag] and [iarg]
    (not [pa] and [pb]) and return its handle; otherwise return [-1]
    with the cursor untouched.  The payloads stay in the handle's cells
    for {!payload_a} and {!payload_b} until {!free}, which the caller
    must call once per taken handle. *)

val payload_a : t -> int -> Obj.t
val payload_b : t -> int -> Obj.t
(** The payload slots of a handle returned by {!take} and not yet freed. *)

val free : t -> int -> unit
(** Scrub a taken handle's payload cells and recycle it. *)
