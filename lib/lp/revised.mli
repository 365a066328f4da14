(** Revised simplex method with bounded variables.

    Solves a {!Problem.t} (minimization over [A x = rhs], [l <= x <= u])
    using the revised simplex method: the basis inverse is maintained as a
    sparse {!Lu} factorization refreshed periodically, with product-form eta
    updates in between.  Infeasible starting bases are handled by an
    artificial-variable phase 1.

    Pricing is partial (candidate-list) pricing with Devex-style reference
    weights: between full scans only a small candidate list of nonbasic
    columns has its reduced costs computed, kept current across pivots by a
    per-pivot update along the pivot row; optimality is only declared after
    a rotating scan has examined every column.  Sustained degeneracy
    triggers an automatic switch to Bland's rule (full lowest-index scan),
    which guarantees termination.

    A previous solve's {!basis} can be fed back via [?basis] to warm-start
    a related problem (same dimensions, perturbed rhs/bounds/objective):
    the basis is refactorized, residual bound violations of the warm basic
    variables are repaired by a bound-relaxation phase 1, and any failure
    (singular basis, unrepairable violation) falls back to the cold path
    transparently. *)

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type stats = {
  iterations : int;           (** total simplex pivots (both phases) *)
  phase1_iterations : int;
  refactorizations : int;
  degenerate_pivots : int;
  bound_flips : int;
  drift_refactorizations : int;
      (** refactorizations forced by an FTRAN residual spike (the factorized
          basis no longer reproduces the entering column to tolerance) *)
  growth_refactorizations : int;
      (** refactorizations forced by eta-file growth outpacing the LU fill *)
}

type basis = {
  vars : int array;
      (** [vars.(i)] is the column basic in row [i], or [-1] when that
          row's internal artificial variable is basic (pinned at zero) *)
  at_upper : bool array;
      (** length [ncols]; for nonbasic columns, whether the column sits at
          its upper bound (entries for basic columns are meaningless) *)
}
(** A snapshot of the final simplex basis, usable to warm-start a later
    solve of a problem with the same dimensions. *)

type result = {
  status : status;
  x : float array;
      (** primal values for the problem's columns (length [ncols]);
          meaningful when [status = Optimal] *)
  objective : float;  (** objective value of [x] *)
  duals : float array;
      (** row dual values [y] with [B^T y = c_B] at the final basis *)
  basis : basis;  (** final basis, for warm-starting a related solve *)
  stats : stats;
  farkas : float array option;
      (** when [status = Infeasible]: a Farkas-style certificate [y]
          (length [nrows]) checkable with {!Certify.certify_infeasible} *)
  ray : float array option;
      (** when [status = Unbounded]: an improving direction [d] (length
          [ncols]) checkable with {!Certify.certify_unbounded} *)
}

val solve :
  ?max_iterations:int ->
  ?deadline:float ->
  ?bland_after:int ->
  ?basis:basis ->
  Problem.t ->
  result
(** Solve the problem with feasibility and optimality tolerances of 1e-7
    and a fresh LU factorization every 128 eta updates.  Defaults:
    [max_iterations = 200_000], [bland_after = 2000] (consecutive degenerate pivots tolerated before
    switching to Bland's rule; lower it only to exercise the fallback in
    tests).  [deadline] is a wall-clock budget in seconds: once exceeded
    the solve stops at the next pivot boundary with
    [status = Iteration_limit] (best effort — the check is amortized, so a
    slow pivot can overrun slightly).  [basis] supplies a warm-start basis
    from a previous solve; it is ignored (cold start) when structurally
    incompatible, and abandoned transparently when singular or
    unrepairable. *)

val pp_status : Format.formatter -> status -> unit
