(** Fixed-capacity downsampling time series.

    Sim-time-bucketed counters and gauges: bucket [i] covers
    [[i*res, (i+1)*res)].  When a sample lands past the last bucket, the
    series coarsens — adjacent buckets fold pairwise, the resolution
    doubles — so memory stays bounded at [capacity] buckets while the
    horizon grows without limit.  Coarsening is aligned at [t = 0] and
    by powers of two only.  Samples are integers, so per-bucket value
    sums are plain ints and coarsening is exact integer addition.

    {!record} is O(1) amortized and allocation-free after {!create}. *)

type t

val create : ?capacity:int -> resolution:float -> unit -> t
(** [capacity] (default 256, minimum 2) buckets of [resolution] sim
    seconds each; the series covers [capacity * resolution] seconds
    before its first coarsening.  Raises [Invalid_argument] on a
    capacity below 2 or a non-positive resolution. *)

val record : t -> at:Prioq.Event.fbox -> int -> unit
(** Add a sample with value [v] at sim time [at.f] (negative times clamp
    to bucket 0).  The time comes in a flat box (the simulator's clock,
    [Netsim.Sim.clock], or a packet's creation time) and is read inside:
    no float crosses the call, so recording allocates nothing; a caller
    holding a plain float wraps it ([{ f = time }]).  For counter-style
    series record [1] per event; for gauge-style series record the
    observed value (a queue depth, a packet size) — per-bucket count and
    sum support both rate and mean readouts, which a reader converts to
    float when it renders them. *)

val capacity : t -> int

val resolution : t -> float
(** The current bucket width: the creation-time [resolution] doubled
    once per coarsening. *)

val used : t -> int
(** Number of leading buckets in use; valid indices are [0..used-1]. *)

val bucket_count : t -> int -> int
val bucket_sum : t -> int -> int

val bucket_start : t -> int -> float
(** Inclusive sim-time lower edge of bucket [i]. *)

val total_count : t -> int
val total_sum : t -> int


