(* Quick-size runs of every workload: each emits every named metric, each
   touched layer reports a non-zero figure, the metric lists match
   BENCHMARK.json, and the deterministic counts repeat exactly for one
   seed and change for another. *)

open Perfbench_lib

(* Units per quick run: plan-cold passes its instance set twice, serve-mix
   crosses one window refresh, deploy-churn spans several crash cycles. *)
let units = [ ("plan-cold", 12); ("serve-mix", 30); ("deploy-churn", 400) ]

(* The per-layer rows each workload must fill with a non-zero value: the
   layers it touches.  Every traced run replays LPs stage by stage and
   computes a guarantee on a held-out window. *)
let replayed =
  [
    "lp.model.lower_ms";
    "lp.problem.validate_ms";
    "lp.revised.solve_ms";
    "lp.revised.minor_words";
    "lp.lu.factor_ms";
    "lp.lu.fill_nnz";
    "lp.certify.ms";
    "core.lp_lf.build_ms";
    "core.lp_lf.plan_ms";
    "core.guarantee.compute_ms";
    "sampling.window_draw_ms";
    "host.calib_ms";
    "trace.self_lp_ms";
    "trace.self_core_ms";
  ]

let touched =
  [
    ("plan-cold", replayed @ [ "lp.revised.pivots" ]);
    ( "serve-mix",
      replayed
      @ [
          "serve.run_ms";
          "serve.wait_ms";
          "serve.coordinator_ms";
          "serve.domain_busy_frac";
          "serve.update_window_ms";
          "serve.solves";
          "serve.batches";
          "trace.self_serve_ms";
          "trace.self_sampling_ms";
        ] );
    ( "deploy-churn",
      replayed
      @ [
          "core.repair.surgery_ms";
          "core.repair.repairs";
          "core.repair.install_mj";
          "simnet.collect_ms";
          "simnet.minor_words";
          "simnet.unicasts";
          "simnet.sim_latency_s";
          "trace.self_simnet_ms";
          "trace.self_bench_ms";
        ] );
  ]

let run ?(trace = false) ~seed name =
  let cfg =
    { Harness.seed; stop = Harness.Units (List.assoc name units); trace; quick = true }
  in
  match Workloads.find name with
  | Some f -> f cfg
  | None -> Alcotest.failf "no workload %s" name

let names ms = List.map (fun (x : Harness.metric) -> x.name) ms
let named ms = List.map (fun (x : Harness.metric) -> (x.name, x.unit_)) ms

(* [(name, unit)] of every metric BENCHMARK.json lists under [key]. *)
let benchmark_json key =
  match Obs.Json.of_file (Filename.concat ".." (Filename.concat ".." "BENCHMARK.json")) with
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  | Ok j -> (
      let field k o = Option.bind (Obs.Json.member k o) Obs.Json.to_str in
      match Option.bind (Obs.Json.member key j) Obs.Json.to_list with
      | None -> Alcotest.failf "BENCHMARK.json has no %s list" key
      | Some l ->
          List.map
            (fun o ->
              match (field "name" o, field "unit" o) with
              | Some n, Some u -> (n, u)
              | _ -> Alcotest.failf "BENCHMARK.json: %s entry without name or unit" key)
            l)

let test_end_to_end name () =
  let r = run ~seed:1 name in
  Alcotest.(check (list (pair string string)))
    "end-to-end metrics as in BENCHMARK.json" (benchmark_json "end_to_end")
    (named r.end_to_end);
  List.iter
    (fun (x : Harness.metric) ->
      if not (Float.is_finite x.value && x.value > 0.) then
        Alcotest.failf "%s: %s = %g, want a positive number" name x.name x.value)
    r.end_to_end;
  Alcotest.(check int) "failed checks" 0 r.checks.failed;
  Alcotest.(check bool) "checks ran" true (r.checks.attempted > 0)

let test_per_layer name () =
  let r = run ~trace:true ~seed:1 name in
  Alcotest.(check int) "failed checks" 0 r.checks.failed;
  let a = Span.analyse r.spans in
  Alcotest.(check bool) "spans recorded" true (a.Span.requests > 0);
  (* before any zero-fill: what the workload itself reported *)
  let given = r.per_layer @ Layers.trace_metrics a in
  List.iter
    (fun row ->
      match List.find_opt (fun (x : Harness.metric) -> String.equal x.name row) given with
      | None -> Alcotest.failf "%s does not report %s" name row
      | Some x ->
          if not (Float.is_finite x.value && x.value > 0.) then
            Alcotest.failf "%s: %s = %g, want a positive number" name row x.value)
    (List.assoc name touched);
  Alcotest.(check (list string)) "per-layer metrics" (List.map fst Layers.all)
    (names (Layers.complete given))

let test_layer_list () =
  Alcotest.(check (list (pair string string)))
    "per-layer metrics as in BENCHMARK.json" (benchmark_json "per_layer") Layers.all

let counts r = (r : Harness.result).counts

let test_determinism name () =
  let a = counts (run ~seed:1 name) and b = counts (run ~seed:1 name) in
  Alcotest.(check (list (pair string (float 0.)))) "same seed, same counts" a b;
  let c = counts (run ~seed:2 name) in
  if List.for_all2 (fun (_, x) (_, y) -> Float.equal x y) a c then
    Alcotest.failf "%s: seed 2 repeats every count of seed 1" name

(* Each unit's time is scaled by the reference pace over a median of the
   kernel timings around it, so it lies between the reference over the
   slowest and over the fastest timing, on one domain or two. *)
let test_pace domains () =
  let setup, () = Harness.setup (fun () -> ()) in
  let loop =
    Harness.closed_loop ~domains ~setup ~heap_after:1 ~pace_every:2 (Harness.Units 6)
      (fun _ _ -> 10.)
  in
  Alcotest.(check int) "untraced units" 6 (Array.length loop.plain);
  Alcotest.(check int) "kernel timings: first, every second unit, last" 5
    (Array.length loop.pace);
  let ref_ms = Harness.pace_ref_ms ~domains in
  let lo = 10. *. ref_ms /. Array.fold_left Float.max 0. loop.pace
  and hi = 10. *. ref_ms /. Array.fold_left Float.min infinity loop.pace in
  Array.iter
    (fun v -> if v < lo || v > hi then Alcotest.failf "scaled %g outside [%g, %g]" v lo hi)
    loop.plain

let () =
  let cases name =
    [
      Alcotest.test_case (name ^ " emits every end-to-end metric") `Quick
        (test_end_to_end name);
      Alcotest.test_case (name ^ " emits every per-layer metric") `Quick
        (test_per_layer name);
      Alcotest.test_case (name ^ " counts repeat per seed") `Quick
        (test_determinism name);
    ]
  in
  Alcotest.run "perfbench"
    [
      ("workloads", List.concat_map cases (List.map fst units));
      ("metrics", [ Alcotest.test_case "per-layer list" `Quick test_layer_list ]);
      ( "pace",
        [
          Alcotest.test_case "one domain" `Quick (test_pace 1);
          Alcotest.test_case "two domains" `Quick (test_pace 2);
        ] );
    ]
