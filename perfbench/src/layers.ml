(* The per-layer metrics every traced run reports, in order, with units.
   A workload that does not touch a layer reports 0 for it: plan-cold never
   serves or simulates, serve-mix never simulates or repairs, deploy-churn
   never serves. *)

let all =
  [
    ("lp.model.lower_ms", "ms");
    ("lp.problem.validate_ms", "ms");
    ("lp.revised.solve_ms", "ms");
    ("lp.revised.pivots", "count");
    ("lp.revised.degenerate_pivots", "count");
    ("lp.revised.bound_flips", "count");
    ("lp.revised.refactorizations", "count");
    ("lp.revised.minor_words", "words");
    ("lp.warm.zero_pivot_ratio", "fraction");
    ("lp.lu.factor_ms", "ms");
    ("lp.lu.fill_nnz", "count");
    ("lp.certify.ms", "ms");
    ("core.lp_lf.build_ms", "ms");
    ("core.lp_lf.plan_ms", "ms");
    ("core.robust_plan.dense_rescues", "count");
    ("core.robust_plan.greedy_fallbacks", "count");
    ("core.guarantee.compute_ms", "ms");
    ("core.repair.surgery_ms", "ms");
    ("core.repair.repairs", "count");
    ("core.repair.refusals", "count");
    ("core.repair.install_mj", "mJ");
    ("serve.run_ms", "ms");
    ("serve.wait_ms", "ms");
    ("serve.coordinator_ms", "ms");
    ("serve.domain_busy_frac", "fraction");
    ("serve.update_window_ms", "ms");
    ("serve.hit_ratio", "fraction");
    ("serve.cache_hits", "count");
    ("serve.range_hits", "count");
    ("serve.pool_hits", "count");
    ("serve.cold_misses", "count");
    ("serve.coalesced", "count");
    ("serve.refused", "count");
    ("serve.solves", "count");
    ("serve.evictions", "count");
    ("serve.batches", "count");
    ("simnet.collect_ms", "ms");
    ("simnet.minor_words", "words");
    ("simnet.unicasts", "count");
    ("simnet.retransmissions", "count");
    ("simnet.reroutes", "count");
    ("simnet.gave_up_frames", "count");
    ("simnet.dark_nodes", "count");
    ("simnet.sim_latency_s", "s");
    ("sampling.window_draw_ms", "ms");
    ("obs.trace_overhead_pct", "%");
    ("host.calib_ms", "ms");
    ("trace.self_lp_ms", "ms");
    ("trace.self_core_ms", "ms");
    ("trace.self_serve_ms", "ms");
    ("trace.self_simnet_ms", "ms");
    ("trace.self_sampling_ms", "ms");
    ("trace.self_bench_ms", "ms");
    ("trace.unaccounted_ms", "ms");
    ("trace.coverage_p01_pct", "%");
  ]

(* Self time per layer and unaccounted time, per request. *)
let trace_metrics (a : Span.analysis) =
  let per_req v = if a.Span.requests = 0 then 0. else v /. float_of_int a.Span.requests in
  let self l = Harness.m ("trace.self_" ^ l ^ "_ms") "ms" (per_req (Span.self_ms a l)) in
  List.map self [ "lp"; "core"; "serve"; "simnet"; "sampling"; "bench" ]
  @ [
      Harness.m "trace.unaccounted_ms" "ms" (per_req a.Span.unaccounted_ms);
      Harness.m "trace.coverage_p01_pct" "%" a.Span.coverage_p01_pct;
    ]

(* Order [given] as [all], filling absent layers with 0.
   @raise Invalid_argument on a name or unit [all] does not list. *)
let complete (given : Harness.metric list) =
  List.iter
    (fun (g : Harness.metric) ->
      match List.assoc_opt g.name all with
      | Some u when String.equal u g.unit_ -> ()
      | _ -> invalid_arg ("unlisted per-layer metric " ^ g.name))
    given;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (g : Harness.metric) -> String.equal g.name name) given with
      | Some g -> g
      | None -> Harness.m name unit_ 0.)
    all
