type var = int

let var_index v = v

type sense = Le | Ge | Eq

type direction = Minimize | Maximize

type status = Optimal | Infeasible | Unbounded | Iteration_limit

let status_equal a b =
  match (a, b) with
  | Optimal, Optimal
  | Infeasible, Infeasible
  | Unbounded, Unbounded
  | Iteration_limit, Iteration_limit ->
      true
  | (Optimal | Infeasible | Unbounded | Iteration_limit), _ -> false

type row = { terms : (float * var) list; sense : sense; rhs : float }

type t = {
  dir : direction;
  mutable names : string list;  (* reversed *)
  mutable lowers : float list;  (* reversed *)
  mutable uppers : float list;  (* reversed *)
  mutable objs : float array;   (* grown on demand *)
  mutable nvars : int;
  mutable rows : row list;      (* reversed *)
  mutable nrows : int;
  (* O(1) per-variable views of the reversed building lists, materialized
     on first lookup or solve and invalidated by [add_var]; keeps
     [var_name] off the O(n) [List.nth] path. *)
  mutable finalized : finalized option;
}

and finalized = {
  f_names : string array;
  f_lowers : float array;
  f_uppers : float array;
}

type basis = { b_nvars : int; b_nrows : int; rb : Revised.basis }

type solution = {
  status : status;
  objective : float;
  values : float array;
  stats : Revised.stats option;
  row_duals : float array option;
  basis : basis option;
}

let create ?(direction = Minimize) () =
  {
    dir = direction;
    names = [];
    lowers = [];
    uppers = [];
    objs = Array.make 16 0.;
    nvars = 0;
    rows = [];
    nrows = 0;
    finalized = None;
  }

let finalize t =
  match t.finalized with
  | Some f -> f
  | None ->
      let n = t.nvars in
      let names = Array.make n "" in
      let lowers = Array.make n 0. and uppers = Array.make n 0. in
      List.iteri (fun k s -> names.(n - 1 - k) <- s) t.names;
      List.iteri (fun k l -> lowers.(n - 1 - k) <- l) t.lowers;
      List.iteri (fun k u -> uppers.(n - 1 - k) <- u) t.uppers;
      let f = { f_names = names; f_lowers = lowers; f_uppers = uppers } in
      t.finalized <- Some f;
      f

let direction t = t.dir

let add_var t ?(lower = 0.) ?(upper = infinity) ?(obj = 0.) name =
  if lower > upper then invalid_arg "Model.add_var: lower > upper";
  let v = t.nvars in
  t.names <- name :: t.names;
  t.lowers <- lower :: t.lowers;
  t.uppers <- upper :: t.uppers;
  if v >= Array.length t.objs then begin
    let bigger = Array.make (2 * (v + 1)) 0. in
    Array.blit t.objs 0 bigger 0 (Array.length t.objs);
    t.objs <- bigger
  end;
  t.objs.(v) <- obj;
  t.nvars <- v + 1;
  t.finalized <- None;
  v

let var_name t v =
  if v < 0 || v >= t.nvars then invalid_arg "Model.var_name: unknown var";
  (finalize t).f_names.(v)

let set_obj t v c =
  if v < 0 || v >= t.nvars then invalid_arg "Model.set_obj: unknown var";
  t.objs.(v) <- c

let add_constraint t terms sense rhs =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= t.nvars then
        invalid_arg "Model.add_constraint: unknown var")
    terms;
  t.rows <- { terms; sense; rhs } :: t.rows;
  t.nrows <- t.nrows + 1

let add_le t terms rhs = add_constraint t terms Le rhs
let add_ge t terms rhs = add_constraint t terms Ge rhs
let add_eq t terms rhs = add_constraint t terms Eq rhs

let n_vars t = t.nvars

let value sol v = sol.values.(v)

(* ---- lowering to the revised solver's computational form ---- *)

let to_problem t =
  let n = t.nvars and m = t.nrows in
  let f = finalize t in
  let lower = Array.make (n + m) 0. and upper = Array.make (n + m) 0. in
  Array.blit f.f_lowers 0 lower 0 n;
  Array.blit f.f_uppers 0 upper 0 n;
  let obj = Array.make (n + m) 0. in
  let sign = match t.dir with Minimize -> 1. | Maximize -> -1. in
  for j = 0 to n - 1 do
    obj.(j) <- sign *. t.objs.(j)
  done;
  (* One slack column per row: A x + s = rhs.  Each structural column is
     built straight into sorted arrays with [Sparse_vec.of_assoc]'s
     semantics: exact zeros (and NaN) skipped, repeated terms summed, and
     entries of magnitude at most [Sparse_vec.drop_tol] dropped after
     summing. *)
  let rhs = Array.make m 0. and hint = Array.make m (-1) in
  let len = Array.make n 0 in
  List.iter
    (fun row ->
      List.iter (fun (c, v) -> if Float.abs c > 0. then len.(v) <- len.(v) + 1) row.terms)
    t.rows;
  let idx = Array.map (fun k -> Array.make k 0) len
  and vals = Array.map (fun k -> Array.make k 0.) len in
  (* [t.rows] is newest first, so rows arrive in descending index order
     and each column fills from its end; [next.(v)] is the first filled
     slot.  Within a row, terms are visited last to first, so a repeated
     variable accumulates in the order the sorted association list would
     sum it. *)
  let next = Array.copy len in
  let rec add_terms i = function
    | [] -> ()
    | (c, v) :: rest ->
        add_terms i rest;
        if Float.abs c > 0. then begin
          let k = next.(v) in
          if k < len.(v) && idx.(v).(k) = i then vals.(v).(k) <- vals.(v).(k) +. c
          else begin
            idx.(v).(k - 1) <- i;
            vals.(v).(k - 1) <- c;
            next.(v) <- k - 1
          end
        end
  in
  List.iteri
    (fun k row ->
      let i = m - 1 - k in
      add_terms i row.terms;
      rhs.(i) <- row.rhs;
      let s = n + i in
      hint.(i) <- s;
      match row.sense with
      | Le ->
          lower.(s) <- 0.;
          upper.(s) <- infinity
      | Ge ->
          lower.(s) <- neg_infinity;
          upper.(s) <- 0.
      | Eq ->
          lower.(s) <- 0.;
          upper.(s) <- 0.)
    t.rows;
  let structural v =
    let ix = idx.(v) and xs = vals.(v) in
    let kept = ref 0 in
    for p = next.(v) to len.(v) - 1 do
      if Float.abs xs.(p) > Sparse_vec.drop_tol then begin
        ix.(!kept) <- ix.(p);
        xs.(!kept) <- xs.(p);
        incr kept
      end
    done;
    if !kept = Array.length ix then Sparse_vec.of_arrays ix xs
    else Sparse_vec.of_arrays (Array.sub ix 0 !kept) (Array.sub xs 0 !kept)
  in
  let cols =
    Array.init (n + m) (fun j ->
        if j < n then structural j else Sparse_vec.of_arrays [| j - n |] [| 1. |])
  in
  {
    Problem.nrows = m;
    ncols = n + m;
    cols;
    obj;
    lower;
    upper;
    rhs;
    basis_hint = Some hint;
  }

let basis_shape b = (b.b_nvars, b.b_nrows)

(* THE basis-compatibility predicate.  The lowering maps variable [v] to
   column [v] and row [i]'s slack to column [nvars + i], so (nvars, nrows)
   equality is exactly what makes a basis portable across solves (and
   across freshly built models of the same shape).  Every consumer of a
   warm-start token — [solve] itself, the certified fallback chain, the
   serving layer's warm-basis pool — must route through this one
   implementation instead of re-deriving the shape check. *)
let basis_compatible t b = b.b_nvars = t.nvars && b.b_nrows = t.nrows

let objective_of t values =
  let acc = ref 0. in
  for j = 0 to t.nvars - 1 do
    acc := !acc +. (t.objs.(j) *. values.(j))
  done;
  !acc

let map_status = function
  | Revised.Optimal -> Optimal
  | Revised.Infeasible -> Infeasible
  | Revised.Unbounded -> Unbounded
  | Revised.Iteration_limit -> Iteration_limit

(* Revised solve, also returning the lowered problem and the raw solver
   result so {!solve_certified} can re-check them. *)
let solve_raw ?max_iterations ?deadline ?bland_after ?warm_start t =
  let prob = to_problem t in
  (* A warm basis is only meaningful for a model of identical shape; the
     shared {!basis_compatible} predicate decides. *)
  let basis =
    match warm_start with
    | Some w when basis_compatible t w -> Some w.rb
    | _ -> None
  in
  let res = Revised.solve ?max_iterations ?deadline ?bland_after ?basis prob in
  (* Internal duals are for the minimized objective; convert to the
     model's direction. *)
  let sign = match t.dir with Minimize -> 1. | Maximize -> -1. in
  let row_duals = Array.map (fun y -> sign *. y) res.Revised.duals in
  let basis = { b_nvars = t.nvars; b_nrows = t.nrows; rb = res.Revised.basis } in
  let status = map_status res.Revised.status in
  (* Values are only meaningful at an optimum; zero them otherwise so no
     caller can accidentally consume a half-converged iterate. *)
  let values =
    if status = Optimal then Array.sub res.Revised.x 0 t.nvars
    else Array.make t.nvars 0.
  in
  let sol =
    {
      status;
      objective = objective_of t values;
      values;
      stats = Some res.Revised.stats;
      row_duals = Some row_duals;
      basis = Some basis;
    }
  in
  (prob, res, sol)

(* ---- lowering to the dense reference solver ----
   The dense solver only supports x >= 0, so general bounds are compiled
   away: finite lower bounds by shifting, finite upper bounds by extra rows,
   free variables by splitting into a difference of non-negatives. *)

(* [prob] is [to_problem t]: the revised path validates inside
   [Revised.solve]; the dense lowering bypasses it, so the lowered form is
   validated here for the same guarantee (descriptive rejection of NaN/inf
   data instead of a garbage tableau). *)
let solve_dense_lowered ?max_pivots t prob =
  Problem.validate prob;
  let n = t.nvars in
  let fz = finalize t in
  let lower = fz.f_lowers and upper = fz.f_uppers in
  (* Variable v maps to column pos.(v); free variables additionally own a
     negative part at column neg.(v). *)
  let pos = Array.make n (-1) and neg = Array.make n (-1) in
  let ncols = ref 0 in
  let shift = Array.make n 0. in
  for v = 0 to n - 1 do
    pos.(v) <- !ncols;
    incr ncols;
    if lower.(v) = neg_infinity then begin
      neg.(v) <- !ncols;
      incr ncols
    end
    else shift.(v) <- lower.(v)
  done;
  let obj = Array.make !ncols 0. in
  let const = ref 0. in
  for v = 0 to n - 1 do
    obj.(pos.(v)) <- t.objs.(v);
    if neg.(v) >= 0 then obj.(neg.(v)) <- -.t.objs.(v);
    const := !const +. (t.objs.(v) *. shift.(v))
  done;
  let lower_row terms rhs =
    let row = Array.make !ncols 0. in
    let c = ref rhs in
    List.iter
      (fun (a, v) ->
        row.(pos.(v)) <- row.(pos.(v)) +. a;
        if neg.(v) >= 0 then row.(neg.(v)) <- row.(neg.(v)) -. a;
        c := !c -. (a *. shift.(v)))
      terms;
    (row, !c)
  in
  let rows = ref [] in
  List.iter
    (fun r ->
      let row, rhs = lower_row r.terms r.rhs in
      let sense =
        match r.sense with
        | Le -> Dense_simplex.Le
        | Ge -> Dense_simplex.Ge
        | Eq -> Dense_simplex.Eq
      in
      rows := (row, sense, rhs) :: !rows)
    (List.rev t.rows);
  (* Materialize finite upper bounds. *)
  for v = 0 to n - 1 do
    if upper.(v) < infinity then begin
      let row, rhs = lower_row [ (1., v) ] upper.(v) in
      rows := (row, Dense_simplex.Le, rhs) :: !rows
    end
  done;
  let res =
    Dense_simplex.solve
      ~maximize:(t.dir = Maximize)
      ?max_pivots ~obj
      ~constraints:(Array.of_list (List.rev !rows))
      ()
  in
  let status =
    match res.Dense_simplex.status with
    | Dense_simplex.Optimal -> Optimal
    | Dense_simplex.Infeasible -> Infeasible
    | Dense_simplex.Unbounded -> Unbounded
    | Dense_simplex.Iteration_limit -> Iteration_limit
  in
  let values = Array.make n 0. in
  if status = Optimal then
    for v = 0 to n - 1 do
      let x = res.Dense_simplex.x.(pos.(v)) in
      let x = if neg.(v) >= 0 then x -. res.Dense_simplex.x.(neg.(v)) else x in
      values.(v) <- x +. shift.(v)
    done;
  {
    status;
    objective = (if status = Optimal then res.Dense_simplex.objective +. !const else 0.);
    values;
    stats = None;
    row_duals = None;
    basis = None;
  }

let solve ?max_iterations ?deadline ?bland_after ?warm_start t =
  let _, _, sol =
    solve_raw ?max_iterations ?deadline ?bland_after ?warm_start t
  in
  sol

(* ---- certified solves ---- *)

let solve_certified ?max_iterations ?deadline ?bland_after ?warm_start t =
  let prob, res, sol = solve_raw ?max_iterations ?deadline ?bland_after ?warm_start t in
  let certify_t0 =
    if Obs.Trace.active () then Obs.Trace.now () else 0.
  in
  let report =
    match res.Revised.status with
    | Revised.Optimal ->
        (* Certify in the lowered (minimization) form: the full primal
           vector including slacks against the raw internal duals. *)
        Certify.certify_optimal prob ~x:res.Revised.x ~duals:res.Revised.duals
    | Revised.Infeasible -> (
        match res.Revised.farkas with
        | Some farkas -> Certify.certify_infeasible prob ~farkas
        | None -> Certify.reject "infeasible claim carries no certificate")
    | Revised.Unbounded -> (
        match res.Revised.ray with
        | Some ray -> Certify.certify_unbounded ~x:res.Revised.x prob ~ray
        | None -> Certify.reject "unbounded claim carries no certificate")
    | Revised.Iteration_limit ->
        Certify.reject "iteration/time budget exhausted before optimality"
  in
  if Obs.Trace.active () then
    Obs.Trace.emit Obs.Trace.Certify ~name:"lp.model" ~start_s:certify_t0
      ~dur_s:(Obs.Trace.now () -. certify_t0)
      [
        ("certified", Obs.Trace.Bool report.Certify.certified);
        ("primal_residual", Obs.Trace.Float report.Certify.primal_residual);
        ("duality_gap", Obs.Trace.Float report.Certify.duality_gap);
      ];
  (sol, report)

let solve_dense_certified ?max_pivots t =
  let prob = to_problem t in
  let sol = solve_dense_lowered ?max_pivots t prob in
  let report =
    match sol.status with
    | Optimal ->
        (* The dense lowering discards duals, so only primal feasibility is
           independently checkable.  Reconstruct the slack block: row [i]'s
           slack is its residual [rhs_i - (A x)_i]. *)
        let full = Array.make (t.nvars + t.nrows) 0. in
        Array.blit sol.values 0 full 0 t.nvars;
        List.iteri
          (fun i r ->
            let act =
              List.fold_left
                (fun acc (c, v) -> acc +. (c *. sol.values.(v)))
                0. r.terms
            in
            full.(t.nvars + i) <- r.rhs -. act)
          (List.rev t.rows);
        Certify.certify_feasible prob ~x:full
    | Infeasible -> Certify.reject "dense solver reported infeasible (no certificate)"
    | Unbounded -> Certify.reject "dense solver reported unbounded (no certificate)"
    | Iteration_limit -> Certify.reject "dense pivot budget exhausted"
  in
  (sol, report)

let pp_solution t ppf sol =
  let status_str =
    match sol.status with
    | Optimal -> "optimal"
    | Infeasible -> "infeasible"
    | Unbounded -> "unbounded"
    | Iteration_limit -> "iteration-limit"
  in
  Format.fprintf ppf "@[<v>status: %s@,objective: %.6g@," status_str
    sol.objective;
  for v = 0 to t.nvars - 1 do
    if Float.abs sol.values.(v) > 1e-9 then
      Format.fprintf ppf "%s = %.6g@," (var_name t v) sol.values.(v)
  done;
  Format.fprintf ppf "@]"
