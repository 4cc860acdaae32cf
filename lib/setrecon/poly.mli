(** Dense univariate polynomials over {!Gfp}.

    Representation: [c.(i)] is the coefficient of x^i; the array carries no
    trailing zeros (the zero polynomial is the empty array).  All functions
    treat their arguments as immutable. *)

type t = int array

val zero : t
val one : t
val is_zero : t -> bool

val of_coeffs : int list -> t
(** Coefficients in increasing-degree order; normalizes trailing zeros. *)

val degree : t -> int
(** Degree; -1 for the zero polynomial. *)

val leading : t -> int
(** Leading coefficient; 0 for the zero polynomial. *)

val equal : t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r] and [degree r < degree b].
    Raises [Division_by_zero] if [b] is zero. *)

val monic : t -> t
(** Scale so the leading coefficient is 1; zero stays zero. *)

val gcd : t -> t -> t
(** Monic greatest common divisor. *)

val eval : t -> int -> int
(** Horner evaluation at a field point. *)

val from_roots : int list -> t
(** The monic characteristic polynomial prod (x - r). *)

val pow_mod : t -> int -> modulus:t -> t
(** [pow_mod b e ~modulus]: b^e mod modulus by square-and-multiply. *)

val roots : ?rng:Random.State.t -> t -> int list option
(** Find all roots of a polynomial that is expected to be a product of
    distinct linear factors (Cantor–Zassenhaus equal-degree splitting).
    Returns [None] when the polynomial does not split into
    [degree t] distinct roots — the signal that a reconciliation bound was
    wrong.  Deterministic for a given [rng] seed. *)
