let measure (s : Setup.t) failure plan seed =
  (* Run every test epoch on the simulator with fresh detour draws. *)
  let fault = Simnet.Fault.of_failure failure in
  let rng = Rng.create (seed * 7919) in
  let energies, accuracies, reroutes =
    Array.fold_left
      (fun (es, accs, rr) readings ->
        let r =
          Prospector.Simnet_exec.collect s.Setup.topo s.Setup.mica
            ~fault:(fault, rng) plan ~k:s.Setup.k ~readings
        in
        let acc =
          Prospector.Exec.accuracy ~k:s.Setup.k ~readings
            r.Prospector.Simnet_exec.returned
        in
        ( es +. r.Prospector.Simnet_exec.total_mj,
          accs +. acc,
          rr + r.Prospector.Simnet_exec.reroutes ))
      (0., 0., 0) s.Setup.test_epochs
  in
  let n = float_of_int (Array.length s.Setup.test_epochs) in
  (energies /. n, 100. *. accuracies /. n, float_of_int reroutes /. n)

let run ?(quick = false) ~seed () =
  let n = if quick then 40 else 80 in
  let k = if quick then 8 else 15 in
  let s =
    Setup.uniform_gaussian ~seed ~n ~k
      ~n_samples:(if quick then 10 else 25)
      ~n_test:(if quick then 8 else 20)
      ()
  in
  let failure_rng = Rng.create (seed + 1) in
  let failure =
    Sensor.Failure.uniform failure_rng ~n ~max_prob:0.5 ~max_factor:5.
  in
  let budget = 0.25 *. Planner_eval.naive_k_cost s in
  (* The oblivious planner budgets with clean edge costs, so under real
     failures it overspends.  The aware planner is then given the
     oblivious plan's *realized* spend as its (inflated-cost) budget: the
     comparison is at equal energy actually drawn from the batteries. *)
  let oblivious_plan =
    (Prospector.Lp_lf.plan s.Setup.topo s.Setup.cost s.Setup.samples ~budget
       ~k)
      .Prospector.Lp_lf.plan
  in
  let e_obl, a_obl, r_obl = measure s failure oblivious_plan seed in
  let aware_cost = Sensor.Cost.with_failures s.Setup.cost failure in
  let aware_plan =
    (Prospector.Lp_lf.plan s.Setup.topo aware_cost s.Setup.samples
       ~budget:e_obl ~k)
      .Prospector.Lp_lf.plan
  in
  let e_aware, a_aware, r_aware = measure s failure aware_plan (seed + 1) in
  [
    Series.make
      ~title:
        "Ablation: failure-aware planning (Section 4.4) under injected failures"
      ~columns:[ "plan"; "energy_mJ"; "accuracy_%"; "reroutes/run" ]
      ~notes:
        [
          "plan 0 = failure-oblivious cost model; plan 1 = failure-inflated,";
          "granted plan 0's realized spend so both burn equal energy";
          Printf.sprintf
            "nominal budget %.1f mJ; per-edge failure prob up to 0.5, premium up to 5x"
            budget;
        ]
      [ [ 0.; e_obl; a_obl; r_obl ]; [ 1.; e_aware; a_aware; r_aware ] ];
  ]
