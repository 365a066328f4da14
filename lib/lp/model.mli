(** High-level LP model builder.

    Variables carry optional bounds and objective coefficients; constraints
    are linear expressions compared to a constant.  [solve] lowers the model
    to a {!Problem.t} and runs the sparse {!Revised} simplex (default), or
    the independent {!Dense_simplex} reference for small models. *)

type t

type var
(** An opaque variable handle, valid only for the model that created it. *)

type sense = Le | Ge | Eq

type direction = Minimize | Maximize

type status = Optimal | Infeasible | Unbounded | Iteration_limit

val status_equal : status -> status -> bool
(** Structural equality on {!status}.  Use this (not polymorphic [=])
    when neither side is a literal; it stays correct if the variant
    grows payload-carrying cases. *)

type basis
(** Opaque warm-start token: the simplex basis a solve ended with.  It can
    be passed to a later {!solve} of a model with the same variable and
    constraint counts (the same model re-solved, or a freshly built model of
    identical shape) to start the simplex from that basis instead of from
    scratch.  Incompatible tokens are silently ignored. *)

val basis_shape : basis -> int * int
(** [(n_vars, n_constraints)] of the model the token came from — the shape
    a model must have for the token to apply (used by warm-basis pools to
    index tokens without holding a model). *)

val basis_compatible : t -> basis -> bool
(** Whether the token fits this model.  This is the single
    basis-compatibility predicate: {!solve} consults it before using a
    [?warm_start], the certified fallback chain ([Robust_plan.solve], and
    through it every planner: [Replan], [Repair], the serving layer) drops
    incompatible tokens with it, and basis pools validate candidates
    against it. *)

type solution = {
  status : status;
  objective : float;  (** in the model's direction (not negated) *)
  values : float array;  (** indexed by {!var_index} *)
  stats : Revised.stats option;  (** present when the revised solver ran *)
  row_duals : float array option;
      (** shadow prices, one per constraint in insertion order: the
          marginal change of the objective (in the model's direction) per
          unit increase of that constraint's right-hand side.  Present when
          the revised solver ran. *)
  basis : basis option;
      (** warm-start token for a subsequent solve; present when the revised
          solver ran *)
}

val create : ?direction:direction -> unit -> t
(** A fresh empty model; default direction is [Minimize]. *)

val direction : t -> direction

val add_var :
  t -> ?lower:float -> ?upper:float -> ?obj:float -> string -> var
(** [add_var t name] adds a variable.  Defaults: [lower = 0.],
    [upper = infinity], [obj = 0.].  Names are for diagnostics only and need
    not be unique. *)

val var_index : var -> int
(** Position of the variable in [solution.values]. *)

val var_name : t -> var -> string

val set_obj : t -> var -> float -> unit
(** Overwrite the objective coefficient of a variable. *)

val add_constraint : t -> (float * var) list -> sense -> float -> unit
(** [add_constraint t terms sense rhs] adds [sum coeff*var  <sense>  rhs].
    Duplicate variables in [terms] are summed. *)

val add_le : t -> (float * var) list -> float -> unit
val add_ge : t -> (float * var) list -> float -> unit
val add_eq : t -> (float * var) list -> float -> unit

val n_vars : t -> int

val to_problem : t -> Problem.t
(** The model lowered to computational standard form: variable [v] maps to
    column [v], and constraint [i] (insertion order) owns slack column
    [n_vars + i].  This is exactly the problem {!solve} hands to the
    revised solver, so external checkers ({!Certify}) can re-verify a
    solution against it. *)

val solve :
  ?max_iterations:int ->
  ?deadline:float ->
  ?bland_after:int ->
  ?warm_start:basis ->
  t ->
  solution
(** Optimize the model.  The model itself is not modified and may be solved
    again (e.g. after adding constraints).  [deadline] is a wall-clock
    budget in seconds for the revised solver (best effort; exceeded budgets
    yield [Iteration_limit]).  [warm_start] feeds a previous solution's
    basis token back to the revised solver; it is ignored when the shapes
    differ.  [bland_after] tunes the
    degeneracy threshold for the Bland's-rule fallback (tests only). *)

val solve_certified :
  ?max_iterations:int ->
  ?deadline:float ->
  ?bland_after:int ->
  ?warm_start:basis ->
  t ->
  solution * Certify.report
(** Solve with the revised simplex and independently re-check the claim
    with {!Certify} against the lowered problem data: an optimal
    pair is checked for primal/dual feasibility and duality gap, an
    infeasible claim for a valid Farkas certificate, an unbounded claim for
    a valid improving ray.  [Iteration_limit] results are always rejected
    (nothing to certify).  The report says whether the solution deserves
    trust; the solution itself is the same one {!solve} would return. *)

val solve_dense_certified : ?max_pivots:int -> t -> solution * Certify.report
(** Solve with the dense reference tableau and certify what it can claim:
    the dense lowering carries no duals, so an [Optimal] result is checked
    for primal feasibility only (bounds and constraint residuals of the
    reconstructed full solution).  Non-optimal dense statuses are rejected
    as uncertified.  [max_pivots] caps total pivots (tests). *)

val value : solution -> var -> float
(** Value of a variable in a solution (0. unless [status = Optimal]). *)

val pp_solution : t -> Format.formatter -> solution -> unit
