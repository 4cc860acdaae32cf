(** Fixed-bin histograms with ASCII rendering.

    Figure 6.3 of the dissertation shows that the queue-prediction error is
    normally distributed; the benchmark harness reproduces it as a textual
    histogram with a fitted normal overlay. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** Histogram covering [lo, hi) with [bins] equal-width bins plus
    underflow/overflow counters. Raises [Invalid_argument] if
    [bins <= 0] or [hi <= lo]. *)

val add : t -> float -> unit
(** Record one observation. *)

val count : t -> int
(** Total observations including under/overflow. *)

val bin_counts : t -> int array
(** In-range bin counts, left to right. *)

val underflow : t -> int
val overflow : t -> int

val bin_center : t -> int -> float
(** Center abscissa of bin [i]. *)

val render : t -> string
(** Multi-line ASCII rendering: one row per bin with a proportional bar,
    50 characters for the fullest bin. *)

val render_with_normal : ?width:int -> t -> mu:float -> sigma:float -> string
(** Like [render] but each row also shows the count a N(mu, sigma^2) fit
    would predict for that bin, for eyeballing normality (Fig 6.3). *)
