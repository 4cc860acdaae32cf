(** Bloom filters with set-difference estimation (§2.4.1).

    The dissertation discusses Bloom filters as the cheap-but-lossy way to
    compare fingerprint sets: constant size, but only an {e estimate} of
    the difference, sensitive to mis-parameterization.  We provide them as
    the baseline against which {!Reconcile} is benchmarked (Appendix A
    experiment). *)

type t

val create : ?hashes:int -> bits:int -> unit -> t
(** Empty filter with [bits] bits and [hashes] hash functions
    (default 4). Raises [Invalid_argument] on non-positive parameters. *)

val add : t -> int64 -> unit
(** Insert a fingerprint. *)

val mem : t -> int64 -> bool
(** Membership test: no false negatives, false positives possible. *)

val bits : t -> int
val hashes : t -> int
val cardinality_estimate : t -> float
(** Swamidass–Baldi estimate of the number of inserted distinct elements
    from the fill ratio. *)

val union_estimate : t -> t -> float
(** Estimated |A ∪ B| from the OR of two same-shape filters.  Raises
    [Invalid_argument] when shapes differ. *)

val symmetric_difference_estimate : na:int -> nb:int -> t -> t -> float
(** Estimated |A Δ B| = 2|A ∪ B| − |A| − |B| given the true set sizes
    [na], [nb] (counters are exchanged alongside the filters in the
    protocols). Clamped to be non-negative. *)
