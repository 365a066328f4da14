(* Replay of the LP stages.  A sample of a workload's LPs is re-driven
   stage by stage through the public functions the planner chains
   internally — model build, lowering, validation, revised simplex,
   certification — plus an LU factorization of the final basis, each in
   its own span.  The [lp.*] per-layer rows come from this replay, and
   every replayed objective must match the planner's within certify
   tolerance. *)

type item = {
  net : Harness.network;
  samples : Sampling.Sample_set.t;
  k : int;
  budget : float;
  alive : bool array option;
  warm_from : (float * bool array option) option;
      (** re-solve warm from the final basis of a cold solve at this
          budget and alive mask (a budget-perturbed or masked re-solve);
          [None] solves cold *)
  expect : float option;  (** an objective the workload's planner reported *)
  certify_on : Sampling.Sample_set.t option;
      (** when present, also time [Guarantee.compute] on this window *)
}

type row = {
  warm : bool;
  pivots : int;
  degenerate : int;
  bound_flips : int;
  refactorizations : int;
  minor_words : float;
  fill_nnz : int;
}

let close a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs a +. Float.abs b)

(* The basis matrix of a final basis: a [-1] entry stands for that row's
   artificial, a unit column. *)
let basis_columns (prob : Lp.Problem.t) (b : Lp.Revised.basis) =
  Array.mapi
    (fun i c ->
      if c < 0 then Lp.Sparse_vec.of_assoc [ (i, 1.) ] else prob.Lp.Problem.cols.(c))
    b.Lp.Revised.vars

let model_objective model (r : Lp.Revised.result) =
  match Lp.Model.direction model with
  | Lp.Model.Minimize -> r.Lp.Revised.objective
  | Lp.Model.Maximize -> -.r.Lp.Revised.objective

let replay_one tr checks i (it : item) =
  let net = it.net in
  let model_at ?alive budget =
    Prospector.Lp_lf.lp_model ?alive net.Harness.topo net.Harness.cost it.samples
      ~budget ~k:it.k
  in
  (* the warm start a re-solve would get *)
  let seed =
    Option.map
      (fun (b0, alive) ->
        Span.with_ tr "bench.replay_seed" (fun () ->
            let p =
              Prospector.Lp_lf.plan ?alive net.topo net.cost it.samples ~budget:b0
                ~k:it.k
            in
            let r = Lp.Revised.solve (Lp.Model.to_problem (model_at ?alive b0)) in
            (p.Prospector.Lp_lf.basis, r.Lp.Revised.basis)))
      it.warm_from
  in
  let warm_start = Option.bind seed fst and basis = Option.map snd seed in
  let what fmt = Printf.ksprintf (fun s () -> Printf.sprintf "replay %d: %s" i s) fmt in
  let planned =
    Span.with_ tr "core.lp_lf.plan" (fun () ->
        Prospector.Lp_lf.plan ?alive:it.alive ?warm_start net.topo net.cost
          it.samples ~budget:it.budget ~k:it.k)
  in
  Harness.check checks (Harness.plan_certified planned) (what "plan not certified");
  let model =
    Span.with_ tr "core.lp_lf.build" (fun () -> model_at ?alive:it.alive it.budget)
  in
  let prob = Span.with_ tr "lp.model.lower" (fun () -> Lp.Model.to_problem model) in
  Span.with_ tr "lp.problem.validate" (fun () -> Lp.Problem.validate prob);
  let w0 = Gc.minor_words () in
  let res = Span.with_ tr "lp.revised.solve" (fun () -> Lp.Revised.solve ?basis prob) in
  let minor_words = Gc.minor_words () -. w0 in
  let report =
    Span.with_ tr "lp.certify" (fun () ->
        Lp.Certify.certify_optimal prob ~x:res.Lp.Revised.x ~duals:res.Lp.Revised.duals)
  in
  let lu =
    Span.with_ tr "lp.lu.factor" (fun () ->
        Lp.Lu.factor ~dim:prob.Lp.Problem.nrows (basis_columns prob res.Lp.Revised.basis))
  in
  let obj = model_objective model res in
  Harness.check checks
    (match res.Lp.Revised.status with Lp.Revised.Optimal -> true | _ -> false)
    (what "replayed solve not optimal");
  Harness.check checks report.Lp.Certify.certified (what "replayed solve not certified");
  Harness.check checks
    (close obj planned.Prospector.Lp_lf.lp_objective)
    (what "objective %.9g, planner %.9g" obj planned.Prospector.Lp_lf.lp_objective);
  Option.iter
    (fun e ->
      Harness.check checks (close obj e) (what "objective %.9g, workload %.9g" obj e))
    it.expect;
  Option.iter
    (fun window ->
      let g =
        Span.with_ tr "core.guarantee.compute" (fun () ->
            Prospector.Guarantee.compute ?report:planned.Prospector.Lp_lf.certify
              ~objective:planned.Prospector.Lp_lf.lp_objective net.topo net.cost
              planned.Prospector.Lp_lf.plan ~k:it.k window)
      in
      Harness.check checks
        (Result.is_ok (Prospector.Guarantee.validate g))
        (what "guarantee does not validate"))
    it.certify_on;
  let s = res.Lp.Revised.stats in
  {
    warm = Option.is_some basis;
    pivots = s.Lp.Revised.iterations;
    degenerate = s.Lp.Revised.degenerate_pivots;
    bound_flips = s.Lp.Revised.bound_flips;
    refactorizations = s.Lp.Revised.refactorizations;
    minor_words;
    fill_nnz = Lp.Lu.fill_nnz lu;
  }

let run tr checks items =
  List.mapi (fun i it -> Span.request tr "replay" (fun () -> replay_one tr checks i it)) items

(* The [lp.*] and replay-side [core.*] rows.  [lp.revised.solve_ms]
   includes the validation [Revised.solve] repeats internally. *)
let metrics (a : Span.analysis) rows =
  let mean f = Bstat.mean_list (List.map f rows) in
  let warm = List.filter (fun r -> r.warm) rows in
  let zero_ratio =
    if warm = [] then 0.
    else
      float_of_int (List.length (List.filter (fun r -> r.pivots = 0) warm))
      /. float_of_int (List.length warm)
  in
  let open Harness in
  [
    m "lp.model.lower_ms" "ms" (Span.mean_ms a "lp.model.lower");
    m "lp.problem.validate_ms" "ms" (Span.mean_ms a "lp.problem.validate");
    m "lp.revised.solve_ms" "ms" (Span.mean_ms a "lp.revised.solve");
    m "lp.revised.pivots" "count" (mean (fun r -> float_of_int r.pivots));
    m "lp.revised.degenerate_pivots" "count" (mean (fun r -> float_of_int r.degenerate));
    m "lp.revised.bound_flips" "count" (mean (fun r -> float_of_int r.bound_flips));
    m "lp.revised.refactorizations" "count"
      (mean (fun r -> float_of_int r.refactorizations));
    m "lp.revised.minor_words" "words" (mean (fun r -> r.minor_words));
    m "lp.warm.zero_pivot_ratio" "fraction" zero_ratio;
    m "lp.lu.factor_ms" "ms" (Span.mean_ms a "lp.lu.factor");
    m "lp.lu.fill_nnz" "count" (mean (fun r -> float_of_int r.fill_nnz));
    m "lp.certify.ms" "ms" (Span.mean_ms a "lp.certify");
    m "core.lp_lf.build_ms" "ms" (Span.mean_ms a "core.lp_lf.build");
  ]

(* Deterministic replay counts, for the benchmark's own tests. *)
let counts rows =
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 rows) in
  [
    ("replay.pivots", sum (fun r -> r.pivots));
    ("replay.refactorizations", sum (fun r -> r.refactorizations));
    ("replay.fill_nnz", sum (fun r -> r.fill_nnz));
  ]
