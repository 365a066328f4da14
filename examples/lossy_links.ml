(* Coping with transient link failures (Section 4.4): fold the expected
   re-routing premium of flaky links into the planner's cost model, then
   watch both plans run on the discrete-event simulator with failures
   injected.

     dune exec examples/lossy_links.exe *)

let () =
  let rng = Rng.create 23 in
  let n = 70 in
  let k = 6 in
  let layout = Sensor.Placement.uniform rng ~n ~width:180. ~height:180. () in
  let range = Sensor.Topology.min_connecting_range layout *. 1.1 in
  let topo = Sensor.Topology.build layout ~range in
  let mica = Sensor.Mica2.default in
  let cost = Sensor.Cost.of_mica2 topo mica in

  (* A third of the deployment suffers from flaky links. *)
  let failure = Sensor.Failure.uniform rng ~n ~max_prob:0.4 ~max_factor:3. in
  let flaky =
    Array.to_list failure.Sensor.Failure.fail_prob
    |> List.filteri (fun i _ -> i <> topo.Sensor.Topology.root)
    |> List.filter (fun p -> p > 0.25)
    |> List.length
  in
  Format.printf "network: %d motes, %d edges with failure probability > 0.25@."
    n flaky;

  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:18. ~mean_hi:26.
      ~sigma_lo:1.5 ~sigma_hi:4.
  in
  let samples = Sampling.Sample_set.draw rng field ~k ~count:20 in
  let budget =
    0.3
    *. (Prospector.Naive.naive_k topo cost ~k
          ~readings:(field.Sampling.Field.draw rng))
         .Prospector.Naive.collection_mj
  in

  let oblivious =
    (Prospector.Lp_lf.plan topo cost samples ~budget ~k).Prospector.Lp_lf.plan
  in
  let aware_cost = Sensor.Cost.with_failures cost failure in
  let aware =
    (Prospector.Lp_lf.plan topo aware_cost samples ~budget ~k)
      .Prospector.Lp_lf.plan
  in

  let simulate name plan seed =
    let fault = (Simnet.Fault.of_failure failure, Rng.create seed) in
    let epochs = Array.init 25 (fun _ -> field.Sampling.Field.draw rng) in
    let mj = ref 0. and acc = ref 0. and reroutes = ref 0 in
    Array.iter
      (fun readings ->
        let r =
          Prospector.Simnet_exec.collect topo mica ~fault plan ~k ~readings
        in
        mj := !mj +. r.Prospector.Simnet_exec.total_mj;
        reroutes := !reroutes + r.Prospector.Simnet_exec.reroutes;
        acc :=
          !acc
          +. Prospector.Exec.accuracy ~k ~readings
               r.Prospector.Simnet_exec.returned)
      epochs;
    let d = float_of_int (Array.length epochs) in
    Format.printf
      "%-24s %6.1f mJ/run   %5.1f%% accuracy   %.1f re-routes/run@." name
      (!mj /. d)
      (100. *. !acc /. d)
      (float_of_int !reroutes /. d)
  in
  Format.printf "@.simulated with transient failures injected:@.";
  simulate "failure-oblivious plan" oblivious 1001;
  simulate "failure-aware plan" aware 1002;
  Format.printf
    "@.The failure-aware plan routes its bandwidth around flaky edges, so@.\
     it pays fewer re-routing premiums for the same accuracy.@."
