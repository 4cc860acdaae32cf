(** Flat binary min-heap of event descriptors: the simulator's event
    queue.

    Each element is a full event descriptor — time, tie-break key, an
    8-bit event tag, a small non-negative int operand and two uniform
    payload slots — so scheduling allocates nothing (beyond amortized
    growth) and popping fills a caller-owned {!cursor} instead of
    building options or tuples, allocating nothing.  Ties at equal time
    pop in key order, which is insertion order for {!push}.  Internally
    the heap sifts four scalar parallel arrays (time, key, packed
    descriptor, payload handle); payloads sit still in a handle-indexed
    side table, so reordering the heap never runs the GC write barrier.

    Payload slots are [Obj.t]: the scheduler's tag handlers own the
    typing discipline (each tag fixes the concrete types of both slots),
    which is what lets one monomorphic heap carry every event kind
    without per-event boxing.  Use {!nil} for unused slots.  Slots
    vacated by pops are scrubbed, so the heap never keeps a finished
    event's payloads reachable; the cursor does until the caller
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
(** Destination of {!pop}.  The payload slots keep the popped event's
    payloads reachable until overwritten; the dispatch loop should drop
    them ([nil]) once consumed. *)

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
    reserved sequence number ({!reserve}).  The time travels in a flat box so the call allocates
    nothing even where it is not inlined. *)

val pop : t -> until:float -> strict:bool -> cursor -> bool
(** Pop the minimum element into the cursor when its time is within the
    window ([< until] when [strict], [<= until] otherwise); returns
    [false] (cursor untouched) when the heap is empty or the minimum is
    beyond the window.  Allocates nothing. *)
