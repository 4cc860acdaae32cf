(** Mergeable HDR-style log-bucketed histogram for telemetry
    ({!Export.prometheus_append_hist} renders one).  The fixed-bin
    [Mrstats.Histogram] that draws Fig 6.3 is the other histogram.

    Bin 0 collects values [<= 0], bin [i] ([1 <= i < buckets-1]) the
    upper-inclusive range [(2^(i-2+min_exp), 2^(i-1+min_exp)]], and the
    last bin is the overflow; these are the Prometheus [le=] edges.

    A [Hist.t] can be {e merged} (the robustness oracle folds per-run
    latency histograms this way).  Bucket counts are ints and the value sum is
    held in fixed point ({!quantum} units), so {!merge} is exact integer
    addition — commutative {e and} associative, hence independent of
    merge order.

    The fixed point holds magnitudes below [2^36] (about [6.9e10]).  A
    value outside that range — or an infinity or NaN — still counts in
    its bucket and in {!count}, but stays out of {!sum} and {!mean}.
    The running sum itself is exact while its magnitude stays below
    [2^36] as well.

    [record] is O(1) and allocation-free. *)

type t

val quantum : float
(** Fixed-point resolution of the value sum: [2^-26] (~15 ns when the
    recorded unit is seconds).  Sums are exact multiples of this. *)

val create : ?buckets:int -> ?min_exp:int -> unit -> t
(** [buckets] defaults to 32 (minimum 3); [min_exp] to 0, making bin 1
    the range [(0, 1]].  Raises [Invalid_argument] on fewer than 3
    buckets. *)

val record : t -> float -> unit
(** Count a value: one array increment, one int add.  No allocation.
    A value outside the fixed-point range adds nothing to {!sum}. *)

val record_since : t -> now:Prioq.Event.fbox -> since:Prioq.Event.fbox -> unit
(** [record t (now.f -. since.f)], reading both times in their boxes:
    a float handed to {!record} from another module is boxed (2 words),
    this call allocates nothing. *)

val merge_into : into:t -> t -> unit
(** Fold [src] into [into] (exact integer addition).  Raises
    [Invalid_argument] when bucket shapes differ. *)

val merge : t -> t -> t
(** Pure merge into a fresh histogram; commutative and associative. *)

val buckets : t -> int
val min_exp : t -> int
val count : t -> int

val sum : t -> float
(** Sum of recorded values, quantized to {!quantum}. *)

val mean : t -> float

val bucket_count : t -> int -> int
val bucket_index : t -> float -> int

val bucket_upper : t -> int -> float
(** Inclusive upper edge of a bin; [+inf] for the overflow bin. *)

val uppers : t -> float array
(** All upper edges, index-aligned with bucket counts — exactly the
    [le=] edges the Prometheus exporter must emit. *)

val quantile : t -> float -> float
(** [quantile t q] is the inclusive upper edge of the first bucket whose
    cumulative count reaches [ceil (q * count)] — a deterministic,
    integer-arithmetic upper-bound estimate.  [0.0] when empty. *)

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float
