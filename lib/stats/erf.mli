(** Error function and the standard normal distribution.

    Protocol χ's confidence tests (dissertation §6.2.1, Fig 6.2) are stated
    in terms of [erf] and the standard normal CDF; OCaml's stdlib has
    neither, so we provide double-precision approximations here. *)

val erf : float -> float
(** [erf x] is the Gauss error function, accurate to ~1.2e-7 (Numerical
    Recipes Chebyshev approximation of erfc). *)

val erfc : float -> float
(** [erfc x = 1 - erf x], computed without cancellation for large [x]. *)

val normal_cdf : ?mu:float -> ?sigma:float -> float -> float
(** [normal_cdf ~mu ~sigma x] is P(X <= x) for X ~ N(mu, sigma^2).
    Defaults: [mu = 0.], [sigma = 1.]. *)

val normal_pdf : float -> float
(** Density of the standard normal N(0, 1) at a point. *)

val normal_quantile : float -> float
(** [normal_quantile p] is the inverse standard normal CDF (Acklam's
    algorithm, relative error < 1.15e-9). Raises [Invalid_argument] unless
    [0 < p < 1]. *)
