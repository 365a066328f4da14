type t = {
  min_gain : float;
  amortization_runs : int;
  mutable plan : Plan.t;
  mutable replans : int;
  mutable warm : Lp.Model.basis option;
}

type decision =
  | Kept
  | Disseminated of { plan : Plan.t; guarantee : Guarantee.t option }

let create ?(min_gain = 0.05) ?(amortization_runs = 50) ~initial () =
  if min_gain < 0. then invalid_arg "Replan.create: negative min_gain";
  if amortization_runs < 1 then
    invalid_arg "Replan.create: amortization_runs must be positive";
  { min_gain; amortization_runs; plan = initial; replans = 0; warm = None }

let current t = t.plan

let replans t = t.replans

let expected_accuracy topo cost plan ~k samples =
  let epochs = samples.Sampling.Sample_set.values in
  let total =
    Array.fold_left
      (fun acc readings ->
        let o = Exec.collect topo cost plan ~k ~readings in
        acc +. Exec.accuracy ~k ~readings o.Exec.returned)
      0. epochs
  in
  total /. float_of_int (Array.length epochs)

let force t topo cost plan ~k samples =
  (* An unconditional install is still a dissemination: it must carry the
     same default-confidence bound [consider] attaches, or the periodic
     baselines would ship bound-free plans.  No LP ran here, so there is
     no certification report to fold in (lp_eps = 0) and no objective. *)
  let g = Guarantee.compute topo cost plan ~k samples in
  t.plan <- plan;
  t.replans <- t.replans + 1;
  g

let consider ?max_lp_iterations ?lp_deadline ?guarantee t topo cost mica
    samples ~k ~budget =
  (* Successive epochs re-solve nearly identical LPs: reuse the previous
     epoch's final basis.  When the sample window changes the LP's shape,
     Robust_plan.solve drops the token via the LP layer's shared
     Lp.Model.basis_compatible predicate and the solve starts cold. *)
  let r =
    Lp_lf.plan ?warm_start:t.warm ?max_lp_iterations ?lp_deadline ?guarantee
      topo cost samples ~budget ~k
  in
  (* A fallback result carries no basis; keep the previous token so the
     next epoch can still warm-start from the last certified solve. *)
  (match r.Lp_lf.basis with Some _ -> t.warm <- r.Lp_lf.basis | None -> ());
  let target_met =
    match (guarantee, r.Lp_lf.guarantee) with
    | None, _ -> true
    | Some (eps, delta), Some g -> Guarantee.meets g ~eps ~delta
    | Some _, None -> false
  in
  if r.Lp_lf.provenance = Robust_plan.Fell_back_greedy then begin
    (* Never disseminate an uncertified candidate: the greedy fallback is a
       safety net for answering queries, not a plan worth an install. *)
    Kept
  end
  else if not target_met then begin
    (* The (eps, delta) target could not be certified even after budget
       escalation: an unbacked promise is never disseminated. *)
    Kept
  end
  else begin
  let candidate = r.Lp_lf.plan in
  let incumbent_score = expected_accuracy topo cost t.plan ~k samples in
  let candidate_score = expected_accuracy topo cost candidate ~k samples in
  let gain = candidate_score -. incumbent_score in
  (* The install cost is amortized over the plan's expected lifetime; it
     raises the gain a candidate must show, but only slightly (installs
     are one unicast per participating node).  Both plans already live
     within the same per-run budget, so running cost needs no gate. *)
  let install = Plan.install_mj topo mica candidate in
  let install_penalty =
    install /. (float_of_int t.amortization_runs *. Float.max budget 1e-9)
  in
  if gain >= t.min_gain +. install_penalty then begin
    t.plan <- candidate;
    t.replans <- t.replans + 1;
    (* Every disseminated plan ships with its certified bound: the
       escalation ladder's bound when a target was requested, otherwise a
       default-confidence bound on the current window. *)
    let g =
      match r.Lp_lf.guarantee with
      | Some _ as g -> g
      | None ->
          Some
            (Guarantee.compute ?report:r.Lp_lf.certify
               ~objective:r.Lp_lf.lp_objective topo cost candidate ~k samples)
    in
    Disseminated { plan = candidate; guarantee = g }
  end
  else Kept
  end
