(** Linear programs in computational standard form.

    A problem is [minimize c'x  subject to  A x = rhs,  lower <= x <= upper],
    where the columns of [A] include any slack columns (the {!Model} builder
    adds one slack per inequality row).  Bounds may be infinite. *)

type t = {
  nrows : int;
  ncols : int;
  cols : Sparse_vec.t array;  (** [ncols] columns of [A], each of height [nrows] *)
  obj : float array;          (** minimization objective, length [ncols] *)
  lower : float array;        (** lower bounds, may be [neg_infinity] *)
  upper : float array;        (** upper bounds, may be [infinity] *)
  rhs : float array;          (** right-hand side, length [nrows] *)
  basis_hint : int array option;
      (** Optional: [hint.(i)] is a column that is a pure unit vector on row
          [i] (e.g. that row's slack), used to warm-start the simplex with an
          identity basis.  [-1] entries mean "no hint for this row". *)
}

val validate : ?strict:bool -> t -> unit
(** Check structural invariants (array lengths, column heights, bound
    order, hint columns are unit vectors) and numerical sanity: every
    matrix coefficient, objective coefficient and rhs entry must be
    finite, bounds must not be NaN, no [lower > upper], no [lower = +inf]
    or [upper = -inf].  With [strict] (default [false]), additionally
    reject empty columns — variables appearing in no constraint are legal
    LP-wise (and are handled by both solvers) but are
    almost always a modelling bug in the planning LPs, so the robust
    planning pipeline opts in.
    @raise Invalid_argument with a descriptive message when an invariant
    is violated. *)

val nnz : t -> int
(** Total non-zeros in the constraint matrix. *)

val compatible_basis : t -> int array -> bool
(** [compatible_basis t vars] checks that a warm-start basis description is
    structurally usable for this problem: one entry per row, each either
    [-1] (meaning "use that row's artificial") or a distinct column index in
    [0, ncols).  Nonsingularity is {e not} checked here; the solver falls
    back to a cold start if factorization fails. *)

val activity : t -> float array -> float array
(** [activity t x] computes [A x] (length [nrows]). *)

val objective_value : t -> float array -> float

val max_constraint_violation : t -> float array -> float
(** Largest violation of [A x = rhs] or of a variable bound by the point
    [x]; 0. for a feasible point. *)
