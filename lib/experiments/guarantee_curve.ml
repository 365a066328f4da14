let family_code = function
  | Prospector.Guarantee.Hoeffding -> 0.
  | Prospector.Guarantee.Empirical_bernstein -> 1.
  | Prospector.Guarantee.Per_node_union -> 2.

let run ?(quick = false) ~seed () =
  let n = if quick then 25 else 40 in
  let k = if quick then 5 else 8 in
  let m = if quick then 60 else 120 in
  (* One draw of 2m samples: the first m plan, the last m certify. *)
  let s = Setup.lp_instance ~seed:(seed * 7919) ~n ~n_samples:(2 * m) ~k in
  let topo = s.Setup.topo and cost = s.Setup.cost in
  let plan_window =
    Sampling.Sample_set.slice s.Setup.samples ~offset:0 ~count:m
  in
  let cert_window =
    Sampling.Sample_set.slice s.Setup.samples ~offset:m ~count:m
  in
  let anchor =
    Prospector.Plan.expected_collection_mj topo cost
      (Prospector.Proof_exec.min_bandwidth_plan topo)
  in
  let fractions = [ 0.2; 0.35; 0.5; 0.7; 0.9; 1.1 ] in
  let ladder delta =
    let rows =
      List.map
        (fun frac ->
          let budget = frac *. anchor in
          let r = Prospector.Lp_lf.plan topo cost plan_window ~budget ~k in
          let g =
            Prospector.Guarantee.compute ~delta
              ?report:r.Prospector.Lp_lf.certify
              ~objective:r.Prospector.Lp_lf.lp_objective topo cost
              r.Prospector.Lp_lf.plan ~k cert_window
          in
          [
            budget;
            frac;
            100. *. g.Prospector.Guarantee.empirical_accuracy;
            100. *. g.Prospector.Guarantee.eps;
            100. *. g.Prospector.Guarantee.certified_lower;
            family_code g.Prospector.Guarantee.family;
          ])
        fractions
    in
    Series.make
      ~title:
        (Printf.sprintf "Certified guarantee vs energy budget (delta = %g)"
           delta)
      ~columns:
        [ "budget_mJ"; "fraction"; "accuracy_%"; "eps_%"; "floor_%"; "family" ]
      ~notes:
        [
          Printf.sprintf
            "n=%d, k=%d; plan on %d samples, certify on a disjoint %d" n k m m;
          Printf.sprintf "fraction = budget / full collection (%.1f mJ)" anchor;
          "family 0 = hoeffding, 1 = empirical-bernstein, 2 = per-node-union";
        ]
      rows
  in
  let curves = List.map ladder [ 1e-2; 1e-6 ] in
  let eps = 0.35 and delta = 1e-3 in
  let start = 0.15 *. anchor in
  let esc =
    Prospector.Robust_plan.plan_with_guarantee ~eps ~delta
      ~planner:(fun ~samples ~budget ->
        Prospector.Lp_lf.plan topo cost samples ~budget ~k)
      ~describe:(fun r ->
        ( r.Prospector.Lp_lf.plan,
          r.Prospector.Lp_lf.certify,
          Some r.Prospector.Lp_lf.lp_objective ))
      topo cost ~k s.Setup.samples ~budget:start
  in
  let chosen = esc.Prospector.Robust_plan.chosen in
  curves
  @ [
      Series.make
        ~title:
          (Printf.sprintf "Budget escalation to (eps = %g, delta = %g)" eps
             delta)
        ~columns:[ "attained"; "raises"; "budget_mJ"; "floor_%" ]
        ~notes:[ Printf.sprintf "starting budget %.1f mJ" start ]
        [
          [
            (if esc.Prospector.Robust_plan.attained then 1. else 0.);
            float_of_int esc.Prospector.Robust_plan.escalations;
            chosen.Prospector.Robust_plan.budget;
            100.
            *. chosen.Prospector.Robust_plan.guarantee
                 .Prospector.Guarantee.certified_lower;
          ];
        ];
    ]
