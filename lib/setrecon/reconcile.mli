(** Set reconciliation via characteristic-polynomial interpolation
    (dissertation Appendix A; Minsky–Trachtenberg).

    Two routers each hold a set of packet fingerprints and want the
    symmetric difference while communicating O(|difference|) field
    elements rather than O(|set|).  Each party evaluates the
    characteristic polynomial of its set at agreed sample points; the
    ratio of the evaluations is interpolated as a rational function whose
    numerator and denominator are the characteristic polynomials of the
    two one-sided differences; factoring them yields the missing
    fingerprints.

    {b Method.}  The rational function is found by rational
    reconstruction (Cauchy interpolation): Newton interpolation of the
    shifted ratio F - z^|d| (d = |A| - |B|) through the m sample points,
    then the extended Euclidean algorithm against prod (z - z_i),
    stopped at the first remainder below the numerator bound.  Both
    steps take O(m²) field operations for a bound of m, and no matrix
    is built; 8 further points check the candidate before its roots
    are found.

    Element universe: elements must lie in [0, {!universe_size});
    evaluation points are drawn from the reserved range above it, so the
    characteristic polynomials never vanish at a sample point. *)

val universe_size : int
(** Largest allowed element + 1 (the field size minus a reserved band of
    evaluation points). *)

val element_of_fingerprint : int64 -> int
(** Map a 64-bit fingerprint into the element universe (reduction; a
    vanishingly unlikely collision makes two fingerprints reconcile as one
    element). *)

val char_evals : elements:int array -> points:int array -> int array
(** Evaluations of the characteristic polynomial prod (z - e) at each
    sample point — the only data a party must transmit. *)

type result = {
  a_minus_b : int list;  (** elements held by A and not B, sorted *)
  b_minus_a : int list;  (** elements held by B and not A, sorted *)
  evals_used : int;      (** evaluations transmitted per direction *)
  attempts : int;        (** doubling rounds until the bound sufficed *)
}

val diff_with_bound :
  ?rng:Random.State.t -> bound:int -> a:int array -> b:int array -> unit -> result option
(** Reconcile assuming the symmetric difference has at most [bound]
    elements; [None] if the bound is too small (detected by check-point
    verification and root-splitting failure). Raises [Invalid_argument]
    if some element falls outside the universe. *)

val diff :
  ?rng:Random.State.t -> ?max_bound:int -> a:int array -> b:int array -> unit -> result option
(** Reconcile with geometric bound doubling starting at 8 (default
    [max_bound] 1024). [None] if the difference exceeds [max_bound]. *)
