(** Descriptive statistics over float samples.

    Used throughout the evaluation harness: Figures 5.2/5.4 report max,
    average and median of |Pr|; Figure 6.3 reports the moments of the
    queue-prediction error. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (divides by n-1); 0. for fewer than 2 points. *)

val stddev : float array -> float
(** [sqrt (variance xs)]. *)

val median : float array -> float
(** Median (average of the two middle elements for even n). Does not
    mutate its argument. Raises [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0,100], linear interpolation between
    order statistics. Does not mutate its argument. *)

val min_max : float array -> float * float
(** Smallest and largest element. Raises [Invalid_argument] on empty. *)

val skewness : float array -> float
(** Sample skewness (third standardized moment); 0. when degenerate. *)

val kurtosis_excess : float array -> float
(** Excess kurtosis (fourth standardized moment minus 3); 0. when
    degenerate. A normal sample has excess kurtosis near 0. *)
