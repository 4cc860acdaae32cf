(** Bounded typed event journal.

    A fixed-capacity ring of structured records: recording is O(1) and
    the memory footprint is set at creation no matter how many events
    flow through — under sustained load the journal keeps the newest
    [capacity] records and counts the rest as dropped.  It stores
    {!Span}'s entries and [simulate --trace]'s lines, and is the typed
    view {!Netsim.Probe.journal} builds from the probe's flat ring.

    {b Single-writer}: the ring indices are plain mutable fields, so a
    journal belongs to one domain — the first domain to {!record} after
    creation (or after {!clear}) claims it, and a [record] from any
    other domain raises [Invalid_argument] instead of silently racing
    the indices.  Under a domain pool (e.g. [mrdetect all --jobs N])
    create one journal per domain and merge their {!to_list} views at
    collection time.  Reads ({!iter}, {!fold}, {!to_list}) are not
    guarded: perform them on the owning domain, or after the owner is
    done. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 65536 records.  Raises [Invalid_argument] on a
    non-positive capacity. *)

val capacity : 'a t -> int

val record : 'a t -> 'a -> unit
(** Append, evicting the oldest record once full.  Raises
    [Invalid_argument] when called from a domain other than the
    journal's owner (the first domain that recorded). *)

val full : 'a t -> bool
(** Whether the ring has wrapped: every further {!record} evicts the
    oldest record, {!evictee}. *)

val evictee : 'a t -> 'a
(** The record the next {!record} will evict; raises [Invalid_argument]
    until the ring is {!full}.  A caller that owns the element type may
    mutate the returned value in place and pass it straight back to
    {!record}, turning sustained full-rate recording into a
    zero-allocation loop — provided no other reference to the evicted
    record is live (see {!Span}'s pinning rules for an example of
    excluding retained records).  Neither call allocates. *)

val of_retained : capacity:int -> total:int -> 'a list -> 'a t
(** [of_retained ~capacity ~total records] is the journal that would
    hold [records] (oldest first) after [total] records were offered to
    a fresh one of [capacity]: how a recorder that keeps its own flat
    ring ({!Netsim.Probe}) hands out a typed view.  Raises
    [Invalid_argument] unless [records] number [min total capacity]. *)

val total : 'a t -> int
(** Records ever offered (including evicted ones). *)

val retained : 'a t -> int
(** Records currently held: [min total capacity]. *)

val dropped : 'a t -> int
(** Records evicted so far: [max 0 (total - capacity)]. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Visit the retained records, oldest first. *)

val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b

val to_list : 'a t -> 'a list
(** The retained records, oldest first. *)

val clear : 'a t -> unit
(** Drop every record, reset the counters and release domain
    ownership (the next {!record} claims it afresh). *)
