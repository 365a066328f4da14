(* deploy-churn: the paper's collection loop on simulated epochs.  Each
   epoch runs the installed plan through [Simnet_exec.collect] under 5%
   Bernoulli loss with bursts and a crash/restart schedule, and feeds the
   dark set to [Repair.observe].  A full-bandwidth probe sweep every few
   epochs lets the controller see cut-off nodes come back, so both
   degradations and restorations trigger surgery at a steady cadence.
   The simnet engine and its ARQ are most of the time; plan surgery (a
   warm LP plus a guarantee) is the tail. *)

open Harness

type sizing = {
  n : int;
  k : int;
  window : int;
  cycle : int;  (** epochs per crash/restart cycle *)
  down : int;  (** epochs the cycle's victim stays down *)
  probe_every : int;
}

let full = { n = 100; k = 10; window = 40; cycle = 400; down = 200; probe_every = 5 }
let quick = { n = 30; k = 5; window = 16; cycle = 60; down = 30; probe_every = 5 }
let budget_factor = 0.7
let repair_delta = 1e-4

(* Crash cycles after which [heap_peak_mb] is read. *)
let heap_cycles = 20

type env = {
  net : network;
  window : Sampling.Sample_set.t;
  ctrl : Prospector.Repair.controller;
  initial : Prospector.Lp_lf.result;
  probe : Prospector.Plan.t;
  victims : int array;  (** one per crash cycle, reused after the last *)
  budget : float;
  rng : Rng.t;
}

(* The deployment is fixed: the reference network at n = 100, its sample
   window and the initial plan planned on it.  The seed draws what happens
   at run time — each epoch's readings, losses and bursts, and the crash
   victims, which are the initial plan's non-root participants.  A seeded
   window would change the installed plan, and with it every epoch's
   energy and accuracy, by more than the changes under test. *)
let setup cfg sz ~draw_ms =
  let net = network (Rng.create 20060403) ~n:sz.n ~range_factor:1.25 in
  let drng = Rng.create 20060404 in
  let rng = Rng.create ((cfg.seed * 1299709) + 3) in
  let window, s =
    timed (fun () -> Sampling.Sample_set.draw drng net.field ~k:sz.k ~count:sz.window)
  in
  draw_ms := (1000. *. s) :: !draw_ms;
  let budget = budget_factor *. net.anchor in
  let initial = Prospector.Lp_lf.plan net.topo net.cost window ~budget ~k:sz.k in
  let certify =
    Sampling.Sample_set.of_values ~k:sz.k (draw_epochs drng net sz.window)
  in
  let g =
    Prospector.Guarantee.compute ~delta:repair_delta ?report:initial.certify
      ~objective:initial.lp_objective net.topo net.cost initial.plan ~k:sz.k certify
  in
  let ctrl =
    Prospector.Repair.create ~confirm_after:2 ~clear_after:2 ~delta:repair_delta net.topo
      net.cost mica ~initial:initial.plan ~guarantee:g ~k:sz.k ~budget ()
  in
  let root = net.topo.Sensor.Topology.root in
  let probe =
    Prospector.Plan.make net.topo
      (Array.mapi
         (fun i size -> if i = root then 0 else Int.min size sz.k)
         net.topo.Sensor.Topology.subtree_size)
  in
  let candidates =
    Array.of_list
      (List.filter (fun i -> i <> root) (Prospector.Plan.participants net.topo initial.plan))
  in
  let vrng = Rng.split rng in
  let victims = Array.init 4096 (fun _ -> Rng.choose vrng candidates) in
  { net; window; ctrl; initial; probe; victims; budget; rng = Rng.split rng }

type epoch = {
  ms : float;
  observe_ms : float;
  surgery : bool;
  provenance : Prospector.Robust_plan.provenance option;  (** of a surgery's LP *)
  run : Prospector.Simnet_exec.result;
  minor_words : float;
  probe_mj : float;
  accuracy : float;
}

let fault sz env e =
  let base =
    Simnet.Fault.with_burst (Simnet.Fault.bernoulli ~n:sz.n ~drop:0.05) ~mean_length:0.02
  in
  let victim = env.victims.(e / sz.cycle mod Array.length env.victims) in
  if e mod sz.cycle < sz.down then Simnet.Fault.with_crashes base [ (victim, 0., infinity) ]
  else base

let epoch env sz checks tr e =
  let readings = env.net.field.Sampling.Field.draw env.rng in
  let f = fault sz env e in
  let frng = Rng.split env.rng in
  let prng = Rng.split env.rng in
  let sweep = e mod sz.probe_every = 0 in
  let plan = Prospector.Repair.plan env.ctrl in
  let t0 = now () in
  let run, minor_words, probe, outcome, observe_ms =
    Span.request tr "epoch" (fun () ->
        let w0 = Gc.minor_words () in
        let run =
          Span.with_ tr "simnet.collect" (fun () ->
              Prospector.Simnet_exec.collect env.net.topo mica ~fault:(f, frng) plan ~k:sz.k
                ~readings)
        in
        let minor_words = Gc.minor_words () -. w0 in
        let probe =
          if sweep then
            Some
              (Span.with_ tr "simnet.probe" (fun () ->
                   Prospector.Simnet_exec.collect env.net.topo mica ~fault:(f, prng) env.probe
                     ~k:sz.k ~readings))
          else None
        in
        let dark, probed =
          match probe with
          | Some p ->
              ( Span.with_ tr "bench.dark_union" (fun () ->
                    List.sort_uniq Int.compare
                      (run.Prospector.Simnet_exec.dark @ p.Prospector.Simnet_exec.dark)),
                None )
          | None ->
              ( run.Prospector.Simnet_exec.dark,
                Some
                  (Span.with_ tr "core.plan.participants" (fun () ->
                       Prospector.Plan.participants env.net.topo plan)) )
        in
        let o0 = now () in
        let outcome =
          Span.with_ tr "core.repair.observe" (fun () ->
              Prospector.Repair.observe ?probed env.ctrl env.window ~dark)
        in
        (run, minor_words, probe, outcome, 1000. *. (now () -. o0)))
  in
  let ms = 1000. *. (now () -. t0) in
  let per_node = Array.fold_left ( +. ) 0. run.per_node_mj in
  check checks
    (Float.abs (per_node -. run.total_mj) <= 1e-9 *. (1. +. Float.abs run.total_mj))
    (fun () ->
      Printf.sprintf "epoch %d: per-node energy %.12g <> total %.12g" e per_node run.total_mj);
  let surgery, provenance =
    match outcome with
    | Prospector.Repair.Unnecessary -> (false, None)
    | Prospector.Repair.Repaired r ->
        check checks
          (Result.is_ok (Prospector.Guarantee.validate r.guarantee))
          (fun () -> Printf.sprintf "epoch %d: installed repair's guarantee invalid" e);
        (true, Some r.provenance)
    | Prospector.Repair.Refused { reason; attempt } ->
        check checks false (fun () -> Printf.sprintf "epoch %d: repair refused" e);
        ( true,
          match (reason, attempt) with
          | Prospector.Repair.Uncertified, _ -> Some Prospector.Robust_plan.Fell_back_greedy
          | _, Some a -> Some a.provenance
          | _, None -> None )
  in
  {
    ms;
    observe_ms;
    surgery;
    provenance;
    run;
    minor_words;
    probe_mj = (match probe with Some p -> p.total_mj | None -> 0.);
    accuracy = Prospector.Exec.accuracy ~k:sz.k ~readings run.returned;
  }

(* Per-epoch tallies, accumulated as the loop runs so the benchmark keeps
   no per-epoch results alive (they would inflate [heap_peak_mb]). *)
type tally = {
  mutable epochs : int;
  mutable collect_mj : float;
  mutable probe_mj : float;
  mutable accuracy : float;
  mutable unicasts : int;
  mutable retransmissions : int;
  mutable reroutes : int;
  mutable gave_up : int;
  mutable dark : int;
  mutable sim_latency_s : float;
  mutable minor_words : float;
  mutable surgery_ms : float list;
  mutable provs : Prospector.Robust_plan.provenance list;
  mutable repairs : int;
  mutable refusals : int;
  mutable install_mj : float;
}

let tally () =
  {
    epochs = 0;
    collect_mj = 0.;
    probe_mj = 0.;
    accuracy = 0.;
    unicasts = 0;
    retransmissions = 0;
    reroutes = 0;
    gave_up = 0;
    dark = 0;
    sim_latency_s = 0.;
    minor_words = 0.;
    surgery_ms = [];
    provs = [];
    repairs = 0;
    refusals = 0;
    install_mj = 0.;
  }

let add t ep =
  let r = ep.run in
  t.epochs <- t.epochs + 1;
  t.collect_mj <- t.collect_mj +. r.Prospector.Simnet_exec.total_mj;
  t.probe_mj <- t.probe_mj +. ep.probe_mj;
  t.accuracy <- t.accuracy +. ep.accuracy;
  t.unicasts <- t.unicasts + r.unicasts;
  t.retransmissions <- t.retransmissions + r.retransmissions;
  t.reroutes <- t.reroutes + r.reroutes;
  t.gave_up <- t.gave_up + r.gave_up_frames;
  t.dark <- t.dark + List.length r.dark;
  t.sim_latency_s <- t.sim_latency_s +. r.latency_s;
  t.minor_words <- t.minor_words +. ep.minor_words;
  if ep.surgery then t.surgery_ms <- ep.observe_ms :: t.surgery_ms;
  Option.iter (fun p -> t.provs <- p :: t.provs) ep.provenance

let per_epoch t v = if t.epochs = 0 then 0. else v /. float_of_int t.epochs

let run cfg =
  let sz = if cfg.quick then quick else full in
  let draw_ms = ref [] in
  let setups, env = Harness.setup (fun () -> setup cfg sz ~draw_ms) in
  let checks = checks () in
  check checks (plan_certified env.initial) (fun () -> "initial plan not certified");
  let calib0 = calib_ms () in
  let floors = ref 0. and nfloors = ref 0 and count = ref 0 in
  let tp = tally () and tt = tally () in
  let tr = if cfg.trace then Span.create () else None in
  let ctrl = env.ctrl in
  (* a traced run alternates traced and untraced epochs *)
  let loop =
    closed_loop
      ~traced:(fun i -> cfg.trace && i mod 2 = 1)
      ~setup:setups ~heap_after:(heap_cycles * sz.cycle) ~pace_every:1000
      cfg.stop
      (fun _ traced ->
        let t = if traced then tt else tp in
        let rep0 = Prospector.Repair.repairs ctrl
        and ref0 = Prospector.Repair.refusals ctrl
        and mj0 = Prospector.Repair.repair_energy_mj ctrl in
        let ep = epoch env sz checks (if traced then tr else None) !count in
        incr count;
        add t ep;
        t.repairs <- t.repairs + Prospector.Repair.repairs ctrl - rep0;
        t.refusals <- t.refusals + Prospector.Repair.refusals ctrl - ref0;
        t.install_mj <- t.install_mj +. Prospector.Repair.repair_energy_mj ctrl -. mj0;
        (match Prospector.Repair.guarantee ctrl with
        | Some g ->
            floors := !floors +. g.Prospector.Guarantee.certified_lower;
            incr nfloors
        | None -> ());
        ep.ms)
  in
  let rep_p = tp.repairs and ref_p = tp.refusals and inst_p = tp.install_mj in
  let rep_t = tt.repairs and ref_t = tt.refusals and inst_t = tt.install_mj in
  (* replay the initial LP cold, then the LP masked by the first victim,
     warm from the undamaged solve as surgery is *)
  let alive = Array.make sz.n true in
  alive.(env.victims.(0)) <- false;
  let item =
    {
      Replay.net = env.net;
      samples = env.window;
      k = sz.k;
      budget = env.budget;
      alive = None;
      warm_from = None;
      expect = Some env.initial.lp_objective;
      certify_on = Some env.window;
    }
  in
  let items =
    if cfg.trace then
      [
        item;
        { item with alive = Some alive; warm_from = Some (env.budget, None); expect = None };
      ]
    else []
  in
  let rows = Replay.run tr checks items in
  let calib1 = calib_ms () in
  let tail = Bstat.tail ~max_pct:99.9 loop.plain in
  let e2e =
    end_to_end ~setup_s:(setup_s setups) ~p50:(Bstat.median loop.plain) ~tail
      ~throughput:(throughput loop.plain)
      ~accuracy:(per_epoch tp tp.accuracy)
      ~energy_mj:(per_epoch tp (tp.collect_mj +. inst_p))
      ~certified_floor:(if !nfloors = 0 then 0. else !floors /. float_of_int !nfloors)
      ~heap_mb:loop.heap_mb
  in
  let a = Span.analyse tr in
  let fi = float_of_int in
  let dense, greedy = provenance_counts tt.provs in
  let per_layer =
    Replay.metrics a rows
    @ [
        m "core.lp_lf.plan_ms" "ms" (Span.mean_ms a "core.lp_lf.plan");
        m "core.robust_plan.dense_rescues" "count" (fi dense);
        m "core.robust_plan.greedy_fallbacks" "count" (fi greedy);
        m "core.guarantee.compute_ms" "ms" (Span.mean_ms a "core.guarantee.compute");
        m "core.repair.surgery_ms" "ms" (Bstat.mean_list tt.surgery_ms);
        m "core.repair.repairs" "count" (fi rep_t);
        m "core.repair.refusals" "count" (fi ref_t);
        m "core.repair.install_mj" "mJ" (if rep_t = 0 then 0. else inst_t /. fi rep_t);
        m "simnet.collect_ms" "ms" (Span.mean_ms a "simnet.collect");
        m "simnet.minor_words" "words" (per_epoch tt tt.minor_words);
        m "simnet.unicasts" "count" (per_epoch tt (fi tt.unicasts));
        m "simnet.retransmissions" "count" (per_epoch tt (fi tt.retransmissions));
        m "simnet.reroutes" "count" (per_epoch tt (fi tt.reroutes));
        m "simnet.gave_up_frames" "count" (per_epoch tt (fi tt.gave_up));
        m "simnet.dark_nodes" "count" (per_epoch tt (fi tt.dark));
        m "simnet.sim_latency_s" "s" (per_epoch tt tt.sim_latency_s);
        m "sampling.window_draw_ms" "ms" (Bstat.mean_list !draw_ms);
        m "obs.trace_overhead_pct" "%"
          (100. *. ((Bstat.median loop.traced /. Bstat.median loop.plain) -. 1.));
        m "host.calib_ms" "ms" ((calib0 +. calib1) /. 2.);
      ]
  in
  {
    end_to_end = e2e;
    per_layer;
    counts =
      [
        ("epochs", fi tp.epochs);
        ("repairs", fi rep_p);
        ("refusals", fi ref_p);
        ("install_mj", inst_p);
        ("unicasts", fi tp.unicasts);
        ("retransmissions", fi tp.retransmissions);
        ("gave_up_frames", fi tp.gave_up);
        ("energy_sum", tp.collect_mj);
        ("probe_mj_sum", tp.probe_mj);
        ("accuracy_sum", tp.accuracy);
      ]
      @ Replay.counts rows;
    record =
      [
        ("epochs_timed", Obs.Json.Num (fi tp.epochs));
        ("epochs_traced", Obs.Json.Num (fi tt.epochs));
        ("surgeries_timed", Obs.Json.Num (fi (List.length tp.surgery_ms)));
        ("repairs_timed", Obs.Json.Num (fi rep_p));
        ("probe_mj_per_epoch", Obs.Json.Num (per_epoch tp tp.probe_mj));
        ("heap_after_epochs", Obs.Json.Num (fi (heap_cycles * sz.cycle)));
        ("setups_timed", Obs.Json.Num (fi (setup_count setups)));
        ("latency_tail", tail_json tail);
        ("host_calib_ms", Obs.Json.List [ Obs.Json.Num calib0; Obs.Json.Num calib1 ]);
        ("pace", pace_json ~domains:1 loop.pace);
      ];
    checks;
    spans = tr;
  }
