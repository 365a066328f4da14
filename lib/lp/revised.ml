let src = Logs.Src.create "lp.revised" ~doc:"Revised simplex"

module Log = (val Logs.src_log src : Logs.LOG)

(* Simplex tolerances: primal feasibility, reduced-cost optimality, and the
   eta-file length that forces a fresh LU factorization. *)
let feas_tol = 1e-7

let opt_tol = 1e-7

let refactor_interval = 128

type status = Optimal | Infeasible | Unbounded | Iteration_limit

let status_to_string = function
  | Optimal -> "optimal"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Iteration_limit -> "iteration_limit"

type stats = {
  iterations : int;
  phase1_iterations : int;
  refactorizations : int;
  degenerate_pivots : int;
  bound_flips : int;
  drift_refactorizations : int;
  growth_refactorizations : int;
}

type basis = { vars : int array; at_upper : bool array }

type result = {
  status : status;
  x : float array;
  objective : float;
  duals : float array;
  basis : basis;
  stats : stats;
  farkas : float array option;
  ray : float array option;
}

let pp_status ppf = function
  | Optimal -> Format.pp_print_string ppf "optimal"
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | Iteration_limit -> Format.pp_print_string ppf "iteration-limit"

(* Eta update for the product-form basis inverse.  [rows]/[vals] are the
   entries of the pivot (FTRAN) column w excluding the pivot slot. *)
type eta = { slot : int; wp : float; rows : int array; vals : float array }

let dummy_eta = { slot = 0; wp = 1.; rows = [||]; vals = [||] }

(* Size of the pricing candidate list (multiple pricing): between full
   scans, only these columns have their reduced costs kept current. *)
let cand_cap = 32

type state = {
  prob : Problem.t;
  m : int;  (* rows *)
  ntot : int;  (* structural+slack columns plus m artificials *)
  cols : Sparse_vec.t array;  (* length ntot *)
  lower : float array;
  upper : float array;
  xval : float array;
  basis : int array;  (* slot -> variable *)
  where : int array;  (* variable -> slot, or -1 if nonbasic *)
  at_upper : bool array;  (* for nonbasic variables *)
  mutable lu : Lu.t;
  mutable etas : eta array;  (* oldest first; only [0, n_etas) valid *)
  mutable n_etas : int;
  mutable eta_nnz : int;  (* total off-pivot entries across live etas *)
  mutable lu_fill : int;  (* fill of the current factorization *)
  (* -- pricing state -- *)
  banned : Bytes.t;  (* bitset over columns: 1 = skip in pricing *)
  weight : float array;  (* Devex-style reference weights *)
  dj : float array;  (* cached reduced costs *)
  dj_epoch : int array;  (* validity stamp for [dj] entries *)
  mutable epoch : int;  (* bumped per pivot / objective change *)
  mutable y_cache : float array;  (* duals for the pricing objective *)
  mutable y_epoch : int;
  cand : int array;  (* candidate list, length [cand_cap] *)
  mutable n_cand : int;
  mutable since_refill : int;  (* pivots taken from the current list *)
  wnz : int array;  (* scratch: nonzero slots of the current FTRAN column *)
  mutable n_wnz : int;
  (* -- counters / controls (the counters back the public [stats]) -- *)
  mutable iterations : int;
  mutable phase1_iterations : int;
  mutable refactorizations : int;
  mutable drift_refactorizations : int;
  mutable growth_refactorizations : int;
  mutable degenerate_pivots : int;
  mutable bound_flips : int;
  mutable consecutive_degenerate : int;
  mutable bland : bool;
  mutable pivots_since_drift_check : int;
  mutable loop_ticks : int;  (* loop entries, for the deadline check *)
  mutable last_ray : float array option;  (* set when Unbounded is declared *)
  deadline_at : float;  (* absolute wall-clock limit, [infinity] if none *)
  bland_after : int;
}

let is_free st j =
  st.lower.(j) = neg_infinity && st.upper.(j) = infinity

let is_fixed st j = st.lower.(j) = st.upper.(j)

let is_banned st j = Bytes.unsafe_get st.banned j <> '\000'
let ban st j = Bytes.unsafe_set st.banned j '\001'
let unban st j = Bytes.unsafe_set st.banned j '\000'

(* Apply B^{-1} to a dense row-indexed vector, yielding a slot-indexed one. *)
(* Callers of [ftran] pass a vector they own: it is clobbered as the
   substitution work buffer. *)
let ftran st v =
  let v = Lu.solve_mut st.lu v in
  for k = 0 to st.n_etas - 1 do
    let e = st.etas.(k) in
    let t = v.(e.slot) /. e.wp in
    v.(e.slot) <- t;
    if t <> 0. then
      for p = 0 to Array.length e.rows - 1 do
        v.(e.rows.(p)) <- v.(e.rows.(p)) -. (e.vals.(p) *. t)
      done
  done;
  v

(* Apply B^{-T} to a dense slot-indexed vector, yielding a row-indexed one.
   Etas are applied newest-first, then the LU transpose solve. *)
let btran st c =
  let c = Array.copy c in
  for k = st.n_etas - 1 downto 0 do
    let e = st.etas.(k) in
    let acc = ref 0. in
    for p = 0 to Array.length e.rows - 1 do
      acc := !acc +. (e.vals.(p) *. c.(e.rows.(p)))
    done;
    c.(e.slot) <- (c.(e.slot) -. !acc) /. e.wp
  done;
  Lu.solve_transpose_mut st.lu c

let push_eta st e =
  let cap = Array.length st.etas in
  if st.n_etas >= cap then begin
    let bigger = Array.make (2 * Int.max 1 cap) dummy_eta in
    Array.blit st.etas 0 bigger 0 st.n_etas;
    st.etas <- bigger
  end;
  st.etas.(st.n_etas) <- e;
  st.n_etas <- st.n_etas + 1;
  st.eta_nnz <- st.eta_nnz + Array.length e.rows

let refactorize st =
  let basis_cols = Array.map (fun j -> st.cols.(j)) st.basis in
  st.lu <- Lu.factor ~dim:st.m basis_cols;
  st.n_etas <- 0;
  st.eta_nnz <- 0;
  st.lu_fill <- Lu.fill_nnz st.lu;
  st.refactorizations <- st.refactorizations + 1;
  (* Invalidate pricing caches: the fresh factorization purges drift, so
     reduced costs are recomputed from scratch on the next pricing call. *)
  st.epoch <- st.epoch + 1;
  (* Recompute the basic values from scratch to purge accumulated drift. *)
  let r = Array.copy st.prob.Problem.rhs in
  for j = 0 to st.ntot - 1 do
    if st.where.(j) < 0 && st.xval.(j) <> 0. then
      Sparse_vec.axpy_dense (-.st.xval.(j)) st.cols.(j) r
  done;
  let xb = Lu.solve st.lu r in
  Array.iteri (fun slot j -> st.xval.(j) <- xb.(slot)) st.basis

(* ---- pricing ---- *)

(* Duals for the current pricing objective [c]; cached per basis change. *)
let ensure_y st c =
  if st.y_epoch <> st.epoch then begin
    st.y_cache <- btran st (Array.map (fun j -> c.(j)) st.basis);
    st.y_epoch <- st.epoch
  end

let reduced_cost st c j =
  if st.dj_epoch.(j) = st.epoch then st.dj.(j)
  else begin
    let d = c.(j) -. Sparse_vec.dot_dense st.cols.(j) st.y_cache in
    st.dj.(j) <- d;
    st.dj_epoch.(j) <- st.epoch;
    d
  end

(* Direction in which nonbasic [j] with reduced cost [d] improves the
   objective: +1. (increase from lower/free) or -1. (decrease from
   upper/free); [None] when [j] prices out. *)
let entering_dir st j d =
  if is_free st j then
    if d < -.opt_tol then Some 1.
    else if d > opt_tol then Some (-1.)
    else None
  else if st.at_upper.(j) then if d > opt_tol then Some (-1.) else None
  else if d < -.opt_tol then Some 1.
  else None

let priceable st j = st.where.(j) < 0 && (not (is_fixed st j)) && not (is_banned st j)

(* Bland's rule: lowest-index eligible column, full scan.  Used under
   sustained degeneracy; termination matters more than pivot quality. *)
let price_bland st c =
  ensure_y st c;
  let found = ref None in
  (try
     for j = 0 to st.ntot - 1 do
       if priceable st j then
         match entering_dir st j (reduced_cost st c j) with
         | Some dir ->
             found := Some (j, dir);
             raise Exit
         | None -> ()
     done
   with Exit -> ());
  !found

(* How many pivots may be taken from one candidate list before a full
   rescan.  Stale lists pick globally poor pivots and inflate the iteration
   count; rescanning every pivot wastes the list.  A short leash keeps the
   pivot sequence near full-pricing quality while amortizing the
   whole-matrix pass over several iterations. *)
let refill_period = 4

(* Candidate-list ("multiple") pricing with Devex-style weights.

   Fast path: re-score only the candidate list — whose reduced costs are
   kept exactly current across pivots by {!apply_pivot} — and take the best
   Devex ratio d^2/w.  Every [refill_period] pivots (or when the list runs
   dry) one full scan harvests the globally best [cand_cap] eligible
   columns, so list-driven pivots stay close to full-pricing quality while
   the expensive whole-matrix pass is amortized.  Optimality is declared
   only by a full scan that finds no eligible column. *)
let price st c =
  if st.bland then price_bland st c
  else begin
    ensure_y st c;
    let best = ref None and best_score = ref 0. in
    let score j d =
      let s = d *. d /. st.weight.(j) in
      if s > !best_score then begin
        best := Some (j, d);
        best_score := s
      end
    in
    (* Harvest the candidate list, compacting out stale entries. *)
    let k = ref 0 in
    for i = 0 to st.n_cand - 1 do
      let j = st.cand.(i) in
      if priceable st j then begin
        let d = reduced_cost st c j in
        match entering_dir st j d with
        | Some _ ->
            st.cand.(!k) <- j;
            incr k;
            score j d
        | None -> ()
      end
    done;
    st.n_cand <- !k;
    if !best = None || st.n_cand < 4 || st.since_refill >= refill_period
    then begin
      (* Refill: full scan keeping the top-scoring eligible columns.  The
         list is rebuilt from scratch; [scores.(i)] mirrors [cand.(i)]. *)
      st.n_cand <- 0;
      st.since_refill <- 0;
      best := None;
      best_score := 0.;
      let scores = Array.make cand_cap 0. in
      let worst = ref 0 in
      for j = 0 to st.ntot - 1 do
        if priceable st j then begin
          let d = reduced_cost st c j in
          match entering_dir st j d with
          | Some _ ->
              let s = d *. d /. st.weight.(j) in
              score j d;
              if st.n_cand < cand_cap then begin
                st.cand.(st.n_cand) <- j;
                scores.(st.n_cand) <- s;
                st.n_cand <- st.n_cand + 1;
                if st.n_cand = cand_cap then begin
                  (* find the weakest entry to displace later *)
                  worst := 0;
                  for i = 1 to cand_cap - 1 do
                    if scores.(i) < scores.(!worst) then worst := i
                  done
                end
              end
              else if s > scores.(!worst) then begin
                st.cand.(!worst) <- j;
                scores.(!worst) <- s;
                worst := 0;
                for i = 1 to cand_cap - 1 do
                  if scores.(i) < scores.(!worst) then worst := i
                done
              end
          | None -> ()
        end
      done
    end;
    match !best with
    | None -> None
    | Some (j, d) -> (
        match entering_dir st j d with
        | Some dir -> Some (j, dir)
        | None -> None (* unreachable: best only holds eligible columns *))
  end

type ratio_outcome =
  | Flip
  | Pivot of { slot : int; t : float; to_upper : bool }
  | Ray  (* unbounded direction *)

(* Bounded-variable ratio test for entering variable [q] moving in
   direction [dir] with FTRAN column [w]. *)
let ratio_test st q dir w =
  let pivot_tol = 1e-9 in
  let t_flip = st.upper.(q) -. st.lower.(q) in
  let best_t = ref infinity in
  let best_slot = ref (-1) in
  let best_to_upper = ref false in
  let best_wabs = ref 0. in
  for p = 0 to st.n_wnz - 1 do
    let slot = st.wnz.(p) in
    let wv = w.(slot) in
    if Float.abs wv > pivot_tol then begin
      let i = st.basis.(slot) in
      let delta = dir *. wv in
      let t, to_upper =
        if delta > 0. then
          (* basic variable decreases towards its lower bound *)
          if st.lower.(i) = neg_infinity then (infinity, false)
          else (Float.max 0. (st.xval.(i) -. st.lower.(i)) /. delta, false)
        else if st.upper.(i) = infinity then (infinity, true)
        else (Float.max 0. (st.upper.(i) -. st.xval.(i)) /. -.delta, true)
      in
      let wabs = Float.abs wv in
      let better =
        if st.bland then
          t < !best_t -. 1e-12
          || (t <= !best_t +. 1e-12 && (!best_slot < 0 || i < st.basis.(!best_slot)))
        else
          t < !best_t -. 1e-12 || (t <= !best_t +. 1e-12 && wabs > !best_wabs)
      in
      if t < infinity && better then begin
        best_t := t;
        best_slot := slot;
        best_to_upper := to_upper;
        best_wabs := wabs
      end
    end
  done;
  if !best_slot < 0 && t_flip = infinity then Ray
  else if t_flip <= !best_t then Flip
  else Pivot { slot = !best_slot; t = !best_t; to_upper = !best_to_upper }

let apply_flip st q dir w =
  let range = st.upper.(q) -. st.lower.(q) in
  let delta = dir *. range in
  for p = 0 to st.n_wnz - 1 do
    let slot = st.wnz.(p) in
    let i = st.basis.(slot) in
    st.xval.(i) <- st.xval.(i) -. (delta *. w.(slot))
  done;
  st.at_upper.(q) <- not st.at_upper.(q);
  st.xval.(q) <- (if st.at_upper.(q) then st.upper.(q) else st.lower.(q));
  st.bound_flips <- st.bound_flips + 1
(* A bound flip keeps the basis, so cached duals and reduced costs stay
   valid: no epoch bump. *)

let apply_pivot st q dir w slot t to_upper =
  let leaving = st.basis.(slot) in
  let wp = w.(slot) in
  (* -- pricing cache maintenance (uses the OLD basis, before mutation) --
     One BTRAN of the pivot row e_r serves three purposes: the incremental
     dual update y' = y + (d_q / w_p) rho, the per-pivot reduced-cost
     update of the candidate list, and the Devex weight propagation. *)
  let next = st.epoch + 1 in
  let dq = if st.dj_epoch.(q) = st.epoch then st.dj.(q) else 0. in
  if dq <> 0. && st.y_epoch = st.epoch then begin
    let er = Array.make st.m 0. in
    er.(slot) <- 1.;
    let rho = btran st er in
    let gamma_ref = Float.max 1. st.weight.(q) in
    for idx = 0 to st.n_cand - 1 do
      let j = st.cand.(idx) in
      if j <> q && st.where.(j) < 0 && st.dj_epoch.(j) = st.epoch then begin
        let alpha = Sparse_vec.dot_dense st.cols.(j) rho in
        st.dj.(j) <- st.dj.(j) -. (dq *. alpha /. wp);
        st.dj_epoch.(j) <- next;
        let wj = alpha /. wp *. (alpha /. wp) *. gamma_ref in
        if wj > st.weight.(j) then st.weight.(j) <- wj
      end
    done;
    let s = dq /. wp in
    for i = 0 to st.m - 1 do
      if rho.(i) <> 0. then
        st.y_cache.(i) <- st.y_cache.(i) +. (s *. rho.(i))
    done;
    st.y_epoch <- next;
    st.dj.(leaving) <- -.s;
    st.dj_epoch.(leaving) <- next;
    st.weight.(leaving) <- Float.max 1. (gamma_ref /. (wp *. wp));
    (* The entering column leaves the candidate list; the leaving variable
       takes its place (it is the freshest nonbasic column). *)
    let replaced = ref false in
    for idx = 0 to st.n_cand - 1 do
      if st.cand.(idx) = q then begin
        st.cand.(idx) <- leaving;
        replaced := true
      end
    done;
    if (not !replaced) && st.n_cand < cand_cap then begin
      st.cand.(st.n_cand) <- leaving;
      st.n_cand <- st.n_cand + 1
    end
  end;
  st.epoch <- next;
  st.since_refill <- st.since_refill + 1;
  (* -- the pivot proper -- *)
  for p = 0 to st.n_wnz - 1 do
    let s = st.wnz.(p) in
    let i = st.basis.(s) in
    st.xval.(i) <- st.xval.(i) -. (t *. dir *. w.(s))
  done;
  st.xval.(q) <- st.xval.(q) +. (t *. dir);
  (* Land the leaving variable exactly on its bound. *)
  st.xval.(leaving) <-
    (if to_upper then st.upper.(leaving) else st.lower.(leaving));
  st.where.(leaving) <- -1;
  st.at_upper.(leaving) <- to_upper;
  st.basis.(slot) <- q;
  st.where.(q) <- slot;
  (* Record the eta factor (two passes over the nonzero pattern: count,
     then fill). *)
  let nnz = ref 0 in
  for p = 0 to st.n_wnz - 1 do
    let s = st.wnz.(p) in
    if s <> slot && Float.abs w.(s) > 1e-12 then incr nnz
  done;
  let rows = Array.make !nnz 0 and vals = Array.make !nnz 0. in
  let idx = ref 0 in
  for p = 0 to st.n_wnz - 1 do
    let s = st.wnz.(p) in
    if s <> slot && Float.abs w.(s) > 1e-12 then begin
      rows.(!idx) <- s;
      vals.(!idx) <- w.(s);
      incr idx
    end
  done;
  push_eta st { slot; wp; rows; vals };
  if t <= 1e-10 then begin
    st.degenerate_pivots <- st.degenerate_pivots + 1;
    st.consecutive_degenerate <- st.consecutive_degenerate + 1
  end
  else st.consecutive_degenerate <- 0;
  if st.consecutive_degenerate > st.bland_after && not st.bland then begin
    Log.debug (fun f -> f "switching to Bland's rule after degeneracy");
    st.bland <- true
  end;
  st.pivots_since_drift_check <- st.pivots_since_drift_check + 1;
  if st.n_etas >= refactor_interval then refactorize st
  else if st.n_etas >= 16 && st.eta_nnz > 4 * (st.lu_fill + st.m) then begin
    (* Eta-file growth: the product-form updates have accumulated more
       fill than a fresh factorization would carry, so solves are both
       slower and numerically staler than a refactorization.  Fold them
       in early rather than waiting for the fixed interval. *)
    st.growth_refactorizations <- st.growth_refactorizations + 1;
    refactorize st
  end

(* How often (in pivots) the FTRAN result is verified against the basis
   columns, and the scaled residual above which the eta file is declared
   drifted.  A fresh LU keeps residuals near machine epsilon; a checked
   residual above [drift_tol] means the product-form updates have decayed
   enough to threaten the ratio test, so we refactorize and redo the
   FTRAN before committing the pivot. *)
let drift_check_interval = 25

let drift_tol = 1e-7

(* FTRAN of column [q] with periodic numerical self-checking: every
   [drift_check_interval] pivots (while etas are live) the result [w] is
   verified directly against the problem data via ‖B w - a_q‖∞; on a
   residual spike the basis is refactorized — which also recomputes the
   basic values from scratch — and the FTRAN is retried on fresh
   factors. *)
let ftran_checked st q =
  let spread st q =
    let aq = Array.make st.m 0. in
    Sparse_vec.iter (fun i x -> aq.(i) <- x) st.cols.(q);
    aq
  in
  let w = ftran st (spread st q) in
  if st.n_etas > 0 && st.pivots_since_drift_check >= drift_check_interval
  then begin
    st.pivots_since_drift_check <- 0;
    let r = Array.make st.m 0. in
    for s = 0 to st.m - 1 do
      if w.(s) <> 0. then Sparse_vec.axpy_dense w.(s) st.cols.(st.basis.(s)) r
    done;
    Sparse_vec.iter (fun i x -> r.(i) <- r.(i) -. x) st.cols.(q);
    let worst =
      Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. r
    in
    if worst > drift_tol *. (1. +. Sparse_vec.max_abs st.cols.(q)) then begin
      Log.debug (fun f ->
          f "FTRAN residual %.3g after %d etas: refactorizing" worst st.n_etas);
      st.drift_refactorizations <- st.drift_refactorizations + 1;
      refactorize st;
      ftran st (spread st q)
    end
    else w
  end
  else w

let past_deadline st =
  st.loop_ticks <- st.loop_ticks + 1;
  st.deadline_at < infinity
  (* Check on the very first entry (an already-expired deadline must stop
     even a tiny solve) and every 32 ticks thereafter. *)
  && (st.loop_ticks = 1 || st.loop_ticks land 31 = 0)
  && Obs.Trace.now () >= st.deadline_at

(* Run the simplex loop with objective [c] until optimality or trouble.
   [phase1] only affects iteration bookkeeping. *)
let optimize st c ~phase1 ~max_iterations =
  (* A new objective invalidates every cached reduced cost and the
     candidate list. *)
  st.epoch <- st.epoch + 1;
  st.n_cand <- 0;
  let banned_list = ref [] in
  let clear_bans () =
    List.iter (unban st) !banned_list;
    banned_list := []
  in
  let rec loop () =
    if st.iterations >= max_iterations || past_deadline st then Iteration_limit
    else
      match price st c with
      | None -> Optimal
      | Some (q, dir) -> (
          let w = ftran_checked st q in
          (* One dense pass records the nonzero pattern; the ratio test,
             bound flips, pivot application and eta extraction all iterate
             the (typically short) pattern instead of all [m] slots. *)
          st.n_wnz <- 0;
          for s = 0 to st.m - 1 do
            if w.(s) <> 0. then begin
              st.wnz.(st.n_wnz) <- s;
              st.n_wnz <- st.n_wnz + 1
            end
          done;
          match ratio_test st q dir w with
          | Ray ->
              if phase1 then Optimal (* cannot happen; be safe *)
              else begin
                (* Record the improving direction as a checkable
                   certificate: the entering column moves by [dir], the
                   basic variables compensate along the FTRAN column. *)
                let ray = Array.make st.ntot 0. in
                ray.(q) <- dir;
                for p = 0 to st.n_wnz - 1 do
                  let s = st.wnz.(p) in
                  ray.(st.basis.(s)) <- -.dir *. w.(s)
                done;
                st.last_ray <- Some ray;
                Unbounded
              end
          | Flip ->
              st.iterations <- st.iterations + 1;
              if phase1 then st.phase1_iterations <- st.phase1_iterations + 1;
              apply_flip st q dir w;
              clear_bans ();
              loop ()
          | Pivot { slot; t; to_upper } ->
              if Float.abs w.(slot) < 1e-7 && st.n_etas > 0 then begin
                (* Numerically dubious pivot: refactorize and retry. *)
                refactorize st;
                loop ()
              end
              else if Float.abs w.(slot) < 1e-9 then begin
                (* Still tiny with a fresh factorization: avoid this column. *)
                ban st q;
                banned_list := q :: !banned_list;
                loop ()
              end
              else begin
                st.iterations <- st.iterations + 1;
                if phase1 then st.phase1_iterations <- st.phase1_iterations + 1;
                apply_pivot st q dir w slot t to_upper;
                clear_bans ();
                loop ()
              end)
  in
  let r = loop () in
  clear_bans ();
  r

(* ---- state construction ---- *)

exception Warm_start_failed

let make_state ~bland_after ~deadline_at prob basis where xval at_upper lower
    upper cols ntot =
  let m = prob.Problem.nrows in
  let lu = Lu.factor ~dim:m (Array.map (fun j -> cols.(j)) basis) in
  {
    prob;
    m;
    ntot;
    cols;
    lower;
    upper;
    xval;
    basis;
    where;
    at_upper;
    lu;
    etas = Array.make 16 dummy_eta;
    n_etas = 0;
    eta_nnz = 0;
    lu_fill = Lu.fill_nnz lu;
    banned = Bytes.make ntot '\000';
    weight = Array.make ntot 1.;
    dj = Array.make ntot 0.;
    dj_epoch = Array.make ntot (-1);
    epoch = 0;
    y_cache = Array.make m 0.;
    y_epoch = -1;
    cand = Array.make cand_cap (-1);
    n_cand = 0;
    since_refill = 0;
    wnz = Array.make m 0;
    n_wnz = 0;
    iterations = 0;
    phase1_iterations = 0;
    refactorizations = 0;
    drift_refactorizations = 0;
    growth_refactorizations = 0;
    degenerate_pivots = 0;
    bound_flips = 0;
    consecutive_degenerate = 0;
    bland = false;
    pivots_since_drift_check = 0;
    loop_ticks = 0;
    last_ray = None;
    deadline_at;
    bland_after;
  }

let solve ?(max_iterations = 200_000) ?deadline ?(bland_after = 2000)
    ?basis:warm prob =
  let deadline_at =
    match deadline with
    | None -> infinity
    | Some d -> Obs.Trace.now () +. Float.max 0. d
  in
  let m = prob.Problem.nrows and n = prob.Problem.ncols in
  let ntot = n + m in
  let finish ?farkas st status =
    let x = Array.sub st.xval 0 n in
    let objective = Problem.objective_value prob x in
    let duals =
      btran st
        (Array.map (fun j -> if j < n then prob.Problem.obj.(j) else 0.) st.basis)
    in
    let basis =
      {
        vars = Array.map (fun j -> if j < n then j else -1) st.basis;
        at_upper = Array.sub st.at_upper 0 n;
      }
    in
    let ray =
      match status with
      | Unbounded -> Option.map (fun r -> Array.sub r 0 n) st.last_ray
      | _ -> None
    in
    {
      status;
      x;
      objective;
      duals;
      basis;
      stats =
        {
          iterations = st.iterations;
          phase1_iterations = st.phase1_iterations;
          refactorizations = st.refactorizations;
          drift_refactorizations = st.drift_refactorizations;
          growth_refactorizations = st.growth_refactorizations;
          degenerate_pivots = st.degenerate_pivots;
          bound_flips = st.bound_flips;
        };
      farkas = (if status = Infeasible then farkas else None);
      ray;
    }
  in
  let phase2 st =
    let c = Array.make ntot 0. in
    Array.blit prob.Problem.obj 0 c 0 n;
    match optimize st c ~phase1:false ~max_iterations with
    | Optimal -> finish st Optimal
    | Unbounded -> finish st Unbounded
    | Iteration_limit -> finish st Iteration_limit
    | Infeasible -> assert false
  in
  (* The columns (problem columns, then one artificial unit column per
     row) are never mutated, so a warm attempt and its cold fallback share
     them; the bounds are per attempt. *)
  let fresh_bounds () =
    let lower = Array.make ntot 0. and upper = Array.make ntot 0. in
    Array.blit prob.Problem.lower 0 lower 0 n;
    Array.blit prob.Problem.upper 0 upper 0 n;
    (lower, upper)
  in
  (* ---- cold start: bound-feasible nonbasic point, hinted or artificial
     basis, artificial-variable phase 1 when the start is infeasible ---- *)
  let solve_cold cols =
    let lower, upper = fresh_bounds () in
    let xval = Array.make ntot 0. in
    (* Nonbasic starting point: finite lower bound if any, else finite upper,
       else 0 for free variables. *)
    let at_upper = Array.make ntot false in
    for j = 0 to n - 1 do
      if lower.(j) > neg_infinity then xval.(j) <- lower.(j)
      else if upper.(j) < infinity then begin
        xval.(j) <- upper.(j);
        at_upper.(j) <- true
      end
      else xval.(j) <- 0.
    done;
    (* Residual with hinted columns held at zero. *)
    let hint =
      match prob.Problem.basis_hint with
      | Some h -> h
      | None -> Array.make m (-1)
    in
    let hinted = Array.make n false in
    Array.iter (fun j -> if j >= 0 then hinted.(j) <- true) hint;
    let residual = Array.copy prob.Problem.rhs in
    for j = 0 to n - 1 do
      if (not hinted.(j)) && xval.(j) <> 0. then
        Sparse_vec.axpy_dense (-.xval.(j)) cols.(j) residual
    done;
    let basis = Array.make m (-1) in
    let where = Array.make ntot (-1) in
    let need_phase1 = ref false in
    for i = 0 to m - 1 do
      let r = residual.(i) in
      let h = hint.(i) in
      if h >= 0 && lower.(h) -. feas_tol <= r && r <= upper.(h) +. feas_tol
      then begin
        basis.(i) <- h;
        xval.(h) <- r;
        (* artificial for this row stays nonbasic, fixed at zero *)
        lower.(n + i) <- 0.;
        upper.(n + i) <- 0.
      end
      else begin
        (* Use the artificial; if there was a hint column it stays nonbasic at
           its initial bound value of 0 (all slack bounds include 0). *)
        basis.(i) <- n + i;
        xval.(n + i) <- r;
        if r >= 0. then begin
          lower.(n + i) <- 0.;
          upper.(n + i) <- infinity
        end
        else begin
          lower.(n + i) <- neg_infinity;
          upper.(n + i) <- 0.
        end;
        if Float.abs r > feas_tol then need_phase1 := true
      end
    done;
    Array.iteri (fun slot j -> where.(j) <- slot) basis;
    let st =
      make_state ~bland_after ~deadline_at prob basis where xval at_upper lower
        upper cols ntot
    in
    if not !need_phase1 then phase2 st
    else begin
      (* Phase 1: minimize the total artificial infeasibility. *)
      let c1 = Array.make ntot 0. in
      for i = 0 to m - 1 do
        if st.where.(n + i) >= 0 then
          c1.(n + i) <- (if st.xval.(n + i) >= 0. then 1. else -1.)
        else c1.(n + i) <- 1.
      done;
      match optimize st c1 ~phase1:true ~max_iterations with
      | Iteration_limit -> finish st Iteration_limit
      | Unbounded -> assert false
      | Infeasible -> assert false
      | Optimal ->
          let infeas = ref 0. in
          for i = 0 to m - 1 do
            infeas := !infeas +. Float.abs st.xval.(n + i)
          done;
          if !infeas > Float.max 1e-6 (feas_tol *. float_of_int m) then begin
            (* The phase-1 duals are a Farkas certificate: at the phase-1
               optimum every problem column's reduced cost [-y'a_j] prices
               out against its bound, so [y'b - sup y'Ax] equals the
               residual infeasibility, which is positive. *)
            let farkas = btran st (Array.map (fun j -> c1.(j)) st.basis) in
            finish ~farkas st Infeasible
          end
          else begin
            (* Pin all artificials to zero and re-optimize the true cost. *)
            for i = 0 to m - 1 do
              st.lower.(n + i) <- 0.;
              st.upper.(n + i) <- 0.;
              if st.where.(n + i) < 0 then begin
                st.xval.(n + i) <- 0.;
                st.at_upper.(n + i) <- false
              end
            done;
            phase2 st
          end
    end
  in
  (* ---- warm start: adopt a prior basis, repair residual infeasibility
     with a bound-relaxation phase 1, fall back to cold on any trouble ---- *)
  let solve_warm cols wb =
    let lower, upper = fresh_bounds () in
    let xval = Array.make ntot 0. in
    let at_upper = Array.make ntot false in
    let basis = Array.make m (-1) in
    let where = Array.make ntot (-1) in
    (* Artificials default to nonbasic, fixed at zero. *)
    for i = 0 to m - 1 do
      let j = wb.vars.(i) in
      basis.(i) <- (if j >= 0 then j else n + i)
    done;
    Array.iteri (fun slot j -> where.(j) <- slot) basis;
    (* Nonbasic structurals sit at the recorded bound. *)
    for j = 0 to n - 1 do
      if where.(j) < 0 then
        if wb.at_upper.(j) && upper.(j) < infinity then begin
          xval.(j) <- upper.(j);
          at_upper.(j) <- true
        end
        else if lower.(j) > neg_infinity then xval.(j) <- lower.(j)
        else if upper.(j) < infinity then begin
          xval.(j) <- upper.(j);
          at_upper.(j) <- true
        end
        else xval.(j) <- 0.
    done;
    let st =
      try
        make_state ~bland_after ~deadline_at prob basis where xval at_upper
          lower upper cols ntot
      with Lu.Singular _ -> raise Warm_start_failed
    in
    (* Basic values implied by the nonbasic point. *)
    let r = Array.copy prob.Problem.rhs in
    for j = 0 to ntot - 1 do
      if st.where.(j) < 0 && st.xval.(j) <> 0. then
        Sparse_vec.axpy_dense (-.st.xval.(j)) st.cols.(j) r
    done;
    let xb = Lu.solve st.lu r in
    Array.iteri (fun slot j -> st.xval.(j) <- xb.(slot)) st.basis;
    (* Collect bound violations of the warm basics. *)
    let relaxed = ref [] in
    let c1 = Array.make ntot 0. in
    let infeasible = ref false in
    Array.iter
      (fun j ->
        if st.xval.(j) > st.upper.(j) +. feas_tol then begin
          relaxed := (j, st.lower.(j), st.upper.(j)) :: !relaxed;
          st.upper.(j) <- infinity;
          c1.(j) <- 1.;
          infeasible := true
        end
        else if st.xval.(j) < st.lower.(j) -. feas_tol then begin
          relaxed := (j, st.lower.(j), st.upper.(j)) :: !relaxed;
          st.lower.(j) <- neg_infinity;
          c1.(j) <- -1.;
          infeasible := true
        end)
      st.basis;
    if not !infeasible then phase2 st
    else begin
      (* Repair: drive each violating basic back towards its bound.  The
         relaxation keeps the basis factorizable and needs no artificial
         columns; any residual violation afterwards means the warm basis
         was a bad guide, and the cold path decides feasibility. *)
      match optimize st c1 ~phase1:true ~max_iterations with
      | Iteration_limit -> finish st Iteration_limit
      | Unbounded | Infeasible -> raise Warm_start_failed
      | Optimal ->
          List.iter
            (fun (j, lo, hi) ->
              st.lower.(j) <- lo;
              st.upper.(j) <- hi)
            !relaxed;
          let ok =
            List.for_all
              (fun (j, _, _) ->
                st.xval.(j) >= st.lower.(j) -. feas_tol
                && st.xval.(j) <= st.upper.(j) +. feas_tol)
              !relaxed
          in
          if not ok then raise Warm_start_failed else phase2 st
    end
  in
  let warm_usable wb =
    Array.length wb.vars = m
    && Array.length wb.at_upper = n
    && Problem.compatible_basis prob wb.vars
  in
  (* Validation runs here, inside the timed region and the [lp.revised]
     span, so its cost is part of the solve it guards. *)
  let dispatch () =
    Problem.validate prob;
    let cols =
      Array.init ntot (fun j ->
          if j < n then prob.Problem.cols.(j)
          else Sparse_vec.of_arrays [| j - n |] [| 1. |])
    in
    match warm with
    | Some wb when warm_usable wb -> (
        try solve_warm cols wb with Warm_start_failed -> solve_cold cols)
    | _ -> solve_cold cols
  in
  if not (Obs.Trace.active ()) then dispatch ()
  else begin
    let t0 = Obs.Trace.now () in
    let res = dispatch () in
    Obs.Trace.emit Obs.Trace.Solve ~name:"lp.revised" ~start_s:t0
      ~dur_s:(Obs.Trace.now () -. t0)
      [
        ("status", Obs.Trace.Str (status_to_string res.status));
        ("rows", Obs.Trace.Int m);
        ("cols", Obs.Trace.Int n);
        ("iterations", Obs.Trace.Int res.stats.iterations);
        ("phase1_iterations", Obs.Trace.Int res.stats.phase1_iterations);
        ("refactorizations", Obs.Trace.Int res.stats.refactorizations);
        ( "drift_refactorizations",
          Obs.Trace.Int res.stats.drift_refactorizations );
        ( "growth_refactorizations",
          Obs.Trace.Int res.stats.growth_refactorizations );
        ("degenerate_pivots", Obs.Trace.Int res.stats.degenerate_pivots);
        ("bound_flips", Obs.Trace.Int res.stats.bound_flips);
        ("warm", Obs.Trace.Bool (warm <> None));
      ];
    res
  end
