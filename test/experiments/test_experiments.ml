(* Tests for the experiment scaffolding: series formatting, workload
   setups, and the planner-evaluation glue, plus exact goldens at the
   bench's default seed for the numbers that repeat bit for bit on any
   host: simplex pivot counts and the churn experiment's energies. *)

let bench_seed = 20060403

let test_series_width_checked () =
  Alcotest.check_raises "ragged rows rejected"
    (Invalid_argument "Series.make: row width mismatch") (fun () ->
      ignore
        (Experiments.Series.make ~title:"t" ~columns:[ "a"; "b" ] [ [ 1. ] ]))

let test_series_csv () =
  let s =
    Experiments.Series.make ~title:"t" ~columns:[ "a"; "b" ]
      [ [ 1.; 2. ]; [ 3.5; -1. ] ]
  in
  Alcotest.(check string) "csv" "a,b\n1.0000,2.0000\n3.5000,-1.0000\n"
    (Experiments.Series.to_csv s)

let test_series_print_shape () =
  let s =
    Experiments.Series.make ~title:"sample" ~columns:[ "x" ]
      ~notes:[ "a note" ] [ [ 42. ] ]
  in
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.Series.print ppf s;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  let has needle =
    let n = String.length needle and ln = String.length text in
    let rec go i = i + n <= ln && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "title shown" true (has "== sample ==");
  Alcotest.(check bool) "value shown" true (has "42.00");
  Alcotest.(check bool) "note shown" true (has "a note")

let test_uniform_setup_shape () =
  let s =
    Experiments.Setup.uniform_gaussian ~seed:1 ~n:30 ~k:5 ~n_samples:8
      ~n_test:4 ()
  in
  Alcotest.(check int) "nodes" 30 s.Experiments.Setup.topo.Sensor.Topology.n;
  Alcotest.(check int) "samples" 8
    (Sampling.Sample_set.n_samples s.Experiments.Setup.samples);
  Alcotest.(check int) "test epochs" 4
    (Array.length s.Experiments.Setup.test_epochs);
  Alcotest.(check int) "k" 5 s.Experiments.Setup.k

let test_contention_setup_zones () =
  let s =
    Experiments.Setup.contention ~seed:2 ~n_zones:3 ~per_zone:6 ~background:10
      ~k:4 ~n_samples:5 ~n_test:3 ()
  in
  Alcotest.(check int) "total nodes" (1 + (3 * 6) + 10)
    (Sensor.Placement.n s.Experiments.Setup.layout)

let test_intel_setup_connected () =
  let s = Experiments.Setup.intel_lab ~seed:3 ~k:5 ~n_samples:10 ~n_test:5 () in
  Alcotest.(check int) "54 motes" 54 s.Experiments.Setup.topo.Sensor.Topology.n;
  Alcotest.(check bool) "deep tree from minimal radio range" true
    (Sensor.Topology.height s.Experiments.Setup.topo > 3)

let test_partial_accuracy () =
  let s =
    Experiments.Setup.uniform_gaussian ~seed:4 ~n:20 ~k:10 ~n_samples:5
      ~n_test:6 ()
  in
  let full = Experiments.Planner_eval.partial_accuracy s ~k_fetched:10 in
  let half = Experiments.Planner_eval.partial_accuracy s ~k_fetched:5 in
  Alcotest.(check (float 1e-9)) "fetching k is exact" 1. full;
  Alcotest.(check (float 1e-9)) "fetching k/2 recalls half" 0.5 half

let test_naive_anchor_positive () =
  let s =
    Experiments.Setup.uniform_gaussian ~seed:5 ~n:25 ~k:5 ~n_samples:5
      ~n_test:3 ()
  in
  Alcotest.(check bool) "anchor cost positive" true
    (Experiments.Planner_eval.naive_k_cost s > 0.)

let test_crippled_lp_still_measures () =
  (* With the LP stages starved ([lp_iterations:0]) the planners fall back
     to greedy (see {!Prospector.Robust_plan}); the evaluation glue must
     still return a sane measured point rather than crash. *)
  let s =
    Experiments.Setup.uniform_gaussian ~seed:8 ~n:20 ~k:4 ~n_samples:6
      ~n_test:3 ()
  in
  let check_point name (p : Prospector.Evaluate.point) =
    Alcotest.(check bool) (name ^ ": accuracy in range") true
      (p.Prospector.Evaluate.accuracy >= 0.
      && p.Prospector.Evaluate.accuracy <= 1.);
    Alcotest.(check bool) (name ^ ": cost finite") true
      (Float.is_finite (Prospector.Evaluate.total_per_run_mj p))
  in
  check_point "lp_lf"
    (Experiments.Planner_eval.lp_lf ~lp_iterations:0 s ~budget:30.);
  check_point "lp_no_lf"
    (Experiments.Planner_eval.lp_no_lf ~lp_iterations:0 s ~budget:30.)

let test_replan_samples_swaps () =
  let s =
    Experiments.Setup.uniform_gaussian ~seed:6 ~n:15 ~k:3 ~n_samples:9
      ~n_test:2 ()
  in
  let restricted =
    Experiments.Setup.replan_samples s
      (Sampling.Sample_set.restrict s.Experiments.Setup.samples ~count:4)
  in
  Alcotest.(check int) "swapped" 4
    (Sampling.Sample_set.n_samples restricted.Experiments.Setup.samples);
  Alcotest.(check int) "topology untouched" 15
    restricted.Experiments.Setup.topo.Sensor.Topology.n

(* Simplex pivots on the "Other Results" LP instances at 1.2x a full
   collection, and a warm re-plan of the larger one at 1.05x that budget.
   Exact: one pivot more or less is a solver change, not noise. *)
let test_lp_iteration_golden () =
  let instance (n, m, k) =
    let s =
      Experiments.Setup.lp_instance ~seed:bench_seed ~n ~n_samples:m ~k
    in
    let full =
      Prospector.Plan.expected_collection_mj s.Experiments.Setup.topo
        s.Experiments.Setup.cost
        (Prospector.Proof_exec.min_bandwidth_plan s.Experiments.Setup.topo)
    in
    (s, 1.2 *. full)
  in
  let iterations = function
    | Some st -> st.Lp.Revised.iterations
    | None -> Alcotest.fail "no simplex stats"
  in
  let lp_lf ?warm_start (s : Experiments.Setup.t) budget =
    Prospector.Lp_lf.plan ?warm_start s.topo s.cost s.samples ~budget ~k:s.k
  in
  List.iter
    (fun (((n, m, k) as size), no_lf, lf) ->
      let s, budget = instance size in
      let tag = Printf.sprintf " n=%d samples=%d k=%d" n m k in
      Alcotest.(check int) ("lp-lf" ^ tag) no_lf
        (iterations
           (Prospector.Lp_no_lf.plan s.topo s.cost s.samples ~budget)
             .Prospector.Lp_no_lf.lp_stats);
      Alcotest.(check int) ("lp+lf" ^ tag) lf
        (iterations (lp_lf s budget).Prospector.Lp_lf.lp_stats))
    [ ((50, 15, 10), 58, 245); ((100, 30, 20), 132, 812) ];
  let s, budget = instance (100, 30, 20) in
  let first = lp_lf s budget in
  let cold = lp_lf s (1.05 *. budget) in
  let warm =
    lp_lf ?warm_start:first.Prospector.Lp_lf.basis s (1.05 *. budget)
  in
  Alcotest.(check int) "cold re-plan" 812
    (iterations cold.Prospector.Lp_lf.lp_stats);
  Alcotest.(check int) "warm re-plan" 0
    (iterations warm.Prospector.Lp_lf.lp_stats);
  let c = cold.Prospector.Lp_lf.lp_objective
  and w = warm.Prospector.Lp_lf.lp_objective in
  Alcotest.(check bool)
    (Printf.sprintf "same optimum (%.17g vs %.17g)" c w)
    true
    (Float.abs (c -. w) <= 1e-9 *. Float.abs c)

(* The churn experiment at full size: victims in largest-subtree-first
   order, their delta-install energies, and the crash-restart campaign's
   repair count and recovery energy, all to 1e-9 mJ. *)
let test_churn_golden () =
  let mj name want got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.17g mJ vs golden %.17g" name got want)
      true
      (Float.abs (got -. want) <= 1e-9)
  in
  match Experiments.Churn_recovery.run ~seed:bench_seed () with
  | [ surgery; campaign ] -> (
      Alcotest.(check int) "eight victims" 8 (List.length surgery.rows);
      List.iter2
        (fun (victim, delta_mj) row ->
          match row with
          | [ v; _; delta; _; _; _ ] ->
              Alcotest.(check (float 0.)) "victim" victim v;
              mj (Printf.sprintf "victim %g delta install" victim) delta_mj
                delta
          | _ -> Alcotest.fail "expected six columns")
        [
          (20., 6.2325); (23., 7.27125); (37., 4.155); (16., 4.155);
          (30., 4.155); (13., 8.31); (17., 6.2325); (21., 6.2325);
        ]
        surgery.rows;
      match campaign.rows with
      | [ [ repairs; _; recovery_mj; _ ] ] ->
          Alcotest.(check (float 0.)) "campaign repairs" 2. repairs;
          mj "campaign recovery" 13.50375 recovery_mj
      | _ -> Alcotest.fail "expected one four-column campaign row")
  | _ -> Alcotest.fail "expected two series"

(* The Section 4.4 ablation at seed 42, quick size: columns plan,
   energy_mJ, accuracy_%, reroutes/run.  Detours draw one number per
   original unicast, so reroutes must match exactly; a drift in the draw
   order changes them. *)
let failures_golden =
  [
    [ 0.; 0x1.7afc83552ba76p+4; 45.3125; 3.125 ];
    [ 1.; 0x1.8c718cca47bc8p+4; 50.; 3.125 ];
  ]

let test_failures_golden () =
  let rows =
    match Experiments.Ablation_failures.run ~quick:true ~seed:42 () with
    | [ s ] -> s.Experiments.Series.rows
    | _ -> Alcotest.fail "expected one series"
  in
  let close name want got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.17g vs golden %.17g" name got want)
      true
      (Float.abs (got -. want) <= 1e-9 *. Float.abs want)
  in
  Alcotest.(check int) "two plans" 2 (List.length rows);
  List.iter2
    (fun want got ->
      match (want, got) with
      | [ plan; energy; accuracy; reroutes ], [ plan'; energy'; accuracy'; reroutes' ]
        ->
          Alcotest.(check (float 0.)) "plan" plan plan';
          close "energy_mJ" energy energy';
          close "accuracy_%" accuracy accuracy';
          Alcotest.(check (float 0.)) "reroutes/run" reroutes reroutes'
      | _ -> Alcotest.fail "expected four columns")
    failures_golden rows

let () =
  Alcotest.run "experiments"
    [
      ( "series",
        [
          Alcotest.test_case "ragged rows rejected" `Quick test_series_width_checked;
          Alcotest.test_case "csv rendering" `Quick test_series_csv;
          Alcotest.test_case "print shape" `Quick test_series_print_shape;
        ] );
      ( "setup",
        [
          Alcotest.test_case "uniform gaussian" `Quick test_uniform_setup_shape;
          Alcotest.test_case "contention zones" `Quick test_contention_setup_zones;
          Alcotest.test_case "intel lab" `Quick test_intel_setup_connected;
          Alcotest.test_case "lp instance pivot golden" `Quick
            test_lp_iteration_golden;
        ] );
      ( "planner_eval",
        [
          Alcotest.test_case "partial accuracy" `Quick test_partial_accuracy;
          Alcotest.test_case "naive anchor" `Quick test_naive_anchor_positive;
          Alcotest.test_case "replan samples" `Quick test_replan_samples_swaps;
          Alcotest.test_case "crippled lp still measures" `Quick
            test_crippled_lp_still_measures;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "failure ablation golden" `Quick
            test_failures_golden;
          Alcotest.test_case "churn recovery golden" `Quick test_churn_golden;
        ] );
    ]
