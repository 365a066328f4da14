(* serve-mix: a closed loop of 8 clients over 4 tenants.  Each round is
   one [Server.run] call carrying one query per client, at 2 domains (the
   coordinator plus one worker).  The mix exercises every serving regime:
   exact repeats (cache), fresh budgets (range and pool warm re-solves),
   other k (a new LP shape, cold), attainable (eps, delta) targets, and a
   window refresh every 25 rounds, rotating across tenants — the write
   path beside the query reads. *)

open Harness

type sizing = {
  sizes : int list;
  window : int;
  k : int;
  heldout : int;
  replay_rounds : int;
  target : float * float;  (** the (eps, delta) queries' target *)
}

(* Targets must be attainable on every seed: a refused query counts as a
   failed check.  The (eps, delta) answers' certified floors at these
   sizes reach down to 0.13 (the 1st percentile is 0.20) over 60 seeds,
   3 windows per tenant and budgets of 0.5-0.9x, so the full-size target
   asks for a floor of 0.05; (0.8, 0.1) was refused on some seeds. *)
let full =
  {
    sizes = [ 60; 80; 100; 120 ];
    window = 20;
    k = 8;
    heldout = 100;
    replay_rounds = 30;
    target = (0.95, 0.1);
  }

let quick =
  {
    sizes = [ 20; 25; 30; 35 ];
    window = 16;
    k = 4;
    heldout = 10;
    replay_rounds = 10;
    target = (0.9, 0.2);
  }

let clients = 8
let domains = 2
let refresh_every = 25

(* Rounds after which [heap_peak_mb] is read.  Every round at 2 domains
   spawns a worker domain, and the heap the process keeps grows with the
   rounds run, so the figure is taken at a fixed round. *)
let heap_rounds = 200

type tenant = {
  net : network;
  window0 : Sampling.Sample_set.t;
  heldout : float array array;
}

type env = {
  server : Serve.Server.t;
  tenants : tenant array;
  history : Serve.Server.query list array;  (** per tenant, newest first *)
  rng : Rng.t;  (** the query mix *)
  wrng : Rng.t;  (** refreshed windows *)
}

let new_server () =
  Serve.Server.create
    ~config:{ Serve.Server.default_config with domains; batch = 32 }
    ()

(* The tenant networks (placement, tree, value field) are fixed; the seed
   draws their windows, held-out epochs, the query mix and the refreshed
   windows.  With four networks a seeded topology would move the LP sizes,
   and with them every timing, by more than any change under test. *)
let setup cfg sz ~draw_ms =
  let rng = Rng.create ((cfg.seed * 104729) + 2) in
  let tenants =
    Array.of_list
      (List.map
         (fun n ->
           let net = network (Rng.create (20060403 + n)) ~n ~range_factor:1.2 in
           let window0, s =
             timed (fun () ->
                 Sampling.Sample_set.draw (Rng.split rng) net.field ~k:sz.k ~count:sz.window)
           in
           draw_ms := (1000. *. s) :: !draw_ms;
           { net; window0; heldout = draw_epochs (Rng.split rng) net sz.heldout })
         sz.sizes)
  in
  let server = new_server () in
  Array.iter
    (fun t -> ignore (Serve.Server.register server t.net.topo t.net.cost t.window0))
    tenants;
  {
    server;
    tenants;
    history = Array.make (Array.length tenants) [];
    rng = Rng.split rng;
    wrng = Rng.split rng;
  }

(* One client's next query: 45% an exact repeat of a recent query of its
   tenant, 48% a fresh budget at 0.5-0.9x full collection, 4% another k,
   3% an (eps, delta) target. *)
let next_query env sz c =
  let network = c mod Array.length env.tenants in
  let t = env.tenants.(network) in
  let fresh () = t.net.anchor *. Rng.uniform env.rng ~lo:0.5 ~hi:0.9 in
  let u = Rng.float env.rng 1. in
  let recent = List.filteri (fun i _ -> i < 16) env.history.(network) in
  if u < 0.45 && recent <> [] then Rng.choose env.rng (Array.of_list recent)
  else if u < 0.93 then begin
    let q = Serve.Server.query ~network ~k:sz.k (fresh ()) in
    env.history.(network) <- q :: recent;
    q
  end
  else if u < 0.97 then
    let k = if Rng.bool env.rng then sz.k / 2 else sz.k + (sz.k / 2) in
    Serve.Server.query ~network ~k (fresh ())
  else Serve.Server.query ~guarantee:sz.target ~network ~k:sz.k (fresh ())

type round = {
  queries : Serve.Server.query array;
  refresh : (int * Sampling.Sample_set.t) option;
  outcomes : Serve.Server.outcome array;
  round_ms : float;
  run_ms : float;
  busy_max_ms : float;
  busy_sum_ms : float;
}

let busy srv = Array.map snd (Serve.Server.arena_stats srv)

let round env sz tr r =
  let queries = Array.init clients (next_query env sz) in
  let refresh_to =
    if r > 0 && r mod refresh_every = 0 then
      Some ((r / refresh_every) mod Array.length env.tenants)
    else None
  in
  let b0 = busy env.server in
  let t0 = now () in
  let refresh, (outcomes, run_ms) =
    Span.request tr "round" (fun () ->
        let refresh =
          Option.map
            (fun network ->
              let t = env.tenants.(network) in
              let w =
                Span.with_ tr "sampling.window_draw" (fun () ->
                    Sampling.Sample_set.draw env.wrng t.net.field ~k:sz.k ~count:sz.window)
              in
              Span.with_ tr "serve.update_window" (fun () ->
                  Serve.Server.update_window env.server ~network w);
              (network, w))
            refresh_to
        in
        let out =
          timed (fun () ->
              Span.with_ tr "serve.run" (fun () -> Serve.Server.run env.server queries))
        in
        (refresh, out))
  in
  let round_ms = 1000. *. (now () -. t0) in
  let b1 = busy env.server in
  let deltas = Array.mapi (fun i b -> 1000. *. (b -. b0.(i))) b1 in
  {
    queries;
    refresh;
    outcomes;
    round_ms;
    run_ms = 1000. *. run_ms;
    busy_max_ms = Array.fold_left Float.max 0. deltas;
    busy_sum_ms = Array.fold_left ( +. ) 0. deltas;
  }

let check_outcome checks (q : Serve.Server.query) o =
  check checks
    (match o with
    | Serve.Server.Refused _ -> false
    | Serve.Server.Served r -> (
        r.certify.Lp.Certify.certified
        && Float.equal r.budget q.budget
        &&
        match (q.guarantee, r.guarantee) with
        | None, None -> true
        | Some (eps, delta), Some g ->
            Prospector.Guarantee.meets g ~eps ~delta
            && Result.is_ok (Prospector.Guarantee.validate g)
        | _ -> false))
    (fun () ->
      match o with
      | Serve.Server.Refused why -> "query refused: " ^ why
      | Serve.Server.Served _ -> "served answer not certified at its budget or target")

let same_outcome a b =
  match (a, b) with
  | Serve.Server.Refused x, Serve.Server.Refused y -> String.equal x y
  | Serve.Server.Served x, Serve.Server.Served y ->
      x.plan.Prospector.Plan.bandwidth = y.plan.Prospector.Plan.bandwidth
      && Int64.equal (Int64.bits_of_float x.objective) (Int64.bits_of_float y.objective)
      && String.equal
           (Serve.Server.source_to_string x.source)
           (Serve.Server.source_to_string y.source)
      && Bool.equal x.coalesced y.coalesced
  | _ -> false

(* Replay a prefix of the stream on a fresh 1-domain server: plans,
   objectives and source tags must be bit-identical. *)
let replay_prefix env checks rounds =
  let srv =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with domains = 1; batch = 32 }
      ()
  in
  Array.iter
    (fun t -> ignore (Serve.Server.register srv t.net.topo t.net.cost t.window0))
    env.tenants;
  List.iteri
    (fun i rd ->
      Option.iter (fun (network, w) -> Serve.Server.update_window srv ~network w) rd.refresh;
      let outs = Serve.Server.run srv rd.queries in
      Array.iteri
        (fun j o ->
          check checks (same_outcome o rd.outcomes.(j)) (fun () ->
              Printf.sprintf "round %d query %d differs at 1 domain" i j))
        outs)
    rounds

let stats_delta (a : Serve.Server.stats) (b : Serve.Server.stats) =
  let d f = float_of_int (f b - f a) in
  [
    ("queries", d (fun s -> s.queries));
    ("cache_hits", d (fun s -> s.cache_hits));
    ("range_hits", d (fun s -> s.range_hits));
    ("pool_hits", d (fun s -> s.pool_hits));
    ("cold_misses", d (fun s -> s.cold_misses));
    ("coalesced", d (fun s -> s.coalesced));
    ("refused", d (fun s -> s.refused));
    ("solves", d (fun s -> s.solves));
    ("evictions", d (fun s -> s.evictions));
    ("batches", d (fun s -> s.batches));
  ]

(* Tallies accumulated round by round, so the benchmark keeps no
   per-round results beyond the replayed prefix. *)
type tally = {
  mutable rounds : int;
  mutable acc : float;
  mutable mj : float;
  mutable scored : int;
  mutable floors : float list;
  mutable provs : Prospector.Robust_plan.provenance list;
  mutable waits : float list;  (** per query: round wall time minus its solve *)
  mutable coordinator : float list;  (** per round *)
  mutable busy_ms : float;
  mutable run_ms : float;
  mutable stats : (string * float) list;  (** server counters, summed per round *)
}

let tally () =
  {
    rounds = 0;
    acc = 0.;
    mj = 0.;
    scored = 0;
    floors = [];
    provs = [];
    waits = [];
    coordinator = [];
    busy_ms = 0.;
    run_ms = 0.;
    stats = [];
  }

let add_stats acc d =
  if acc = [] then d else List.map2 (fun (k, a) (_, b) -> (k, a +. b)) acc d

let run cfg =
  let sz = if cfg.quick then quick else full in
  let draw_ms = ref [] in
  let setups, env = Harness.setup (fun () -> setup cfg sz ~draw_ms) in
  let checks = checks () in
  let calib0 = calib_ms () in
  let current = Array.map (fun t -> t.window0) env.tenants in
  let prefix = ref [] and count = ref 0 in
  let memo = Hashtbl.create 1024 in
  let score_outcome t (q : Serve.Server.query) = function
    | Serve.Server.Refused _ -> ()
    | Serve.Server.Served r ->
        let key = (q.network, q.k, r.plan.Prospector.Plan.bandwidth) in
        let acc, mj =
          match Hashtbl.find_opt memo key with
          | Some v -> v
          | None ->
              let tn = env.tenants.(q.network) in
              let v = score tn.net r.plan ~k:q.k tn.heldout in
              Hashtbl.add memo key v;
              v
        in
        t.acc <- t.acc +. acc;
        t.mj <- t.mj +. mj;
        t.scored <- t.scored + 1;
        t.provs <- r.provenance :: t.provs;
        Option.iter
          (fun g -> t.floors <- g.Prospector.Guarantee.certified_lower :: t.floors)
          r.guarantee
  in
  let tp = tally () and tt = tally () in
  let tr = if cfg.trace then Span.create () else None in
  (* a traced run alternates traced and untraced rounds *)
  let loop =
    closed_loop
      ~traced:(fun i -> cfg.trace && i mod 2 = 1)
      ~domains ~setup:setups ~heap_after:heap_rounds ~pace_every:5 cfg.stop
      (fun _ traced ->
        let t = if traced then tt else tp in
        let s0 = Serve.Server.stats env.server in
        let rd = round env sz (if traced then tr else None) !count in
        t.stats <- add_stats t.stats (stats_delta s0 (Serve.Server.stats env.server));
        incr count;
        if List.length !prefix < sz.replay_rounds then prefix := rd :: !prefix;
        Option.iter (fun (n, w) -> current.(n) <- w) rd.refresh;
        t.rounds <- t.rounds + 1;
        t.coordinator <- (rd.run_ms -. rd.busy_max_ms) :: t.coordinator;
        t.busy_ms <- t.busy_ms +. rd.busy_sum_ms;
        t.run_ms <- t.run_ms +. rd.run_ms;
        Array.iteri
          (fun j o ->
            let q = rd.queries.(j) in
            check_outcome checks q o;
            score_outcome t q o;
            t.waits <-
              (match o with
              | Serve.Server.Served r -> rd.run_ms -. r.solve_ms
              | Serve.Server.Refused _ -> rd.run_ms)
              :: t.waits)
          rd.outcomes;
        rd.round_ms)
  in
  let stats_plain = tp.stats and stats_traced = tt.stats in
  replay_prefix env checks (List.rev !prefix);
  (* replay the LP stages of one budget-perturbed warm re-solve per tenant
     against the tenant's current window *)
  let items =
    if not cfg.trace then []
    else
      Array.to_list
        (Array.mapi
           (fun network t ->
             let b = 0.7 *. t.net.anchor in
             {
               Replay.net = t.net;
               samples = current.(network);
               k = sz.k;
               budget = b *. 1.05;
               alive = None;
               warm_from = Some (b, None);
               expect = None;
               certify_on = Some (Sampling.Sample_set.of_values ~k:sz.k t.heldout);
             })
           env.tenants)
  in
  let rows = Replay.run tr checks items in
  let calib1 = calib_ms () in
  let nq = clients * Array.length loop.plain in
  let per_scored t v = if t.scored = 0 then 0. else v /. float_of_int t.scored in
  let tail = Bstat.tail ~max_pct:95. loop.plain in
  let e2e =
    end_to_end ~setup_s:(setup_s setups) ~p50:(Bstat.median loop.plain) ~tail
      ~throughput:(float_of_int clients *. throughput loop.plain)
      ~accuracy:(per_scored tp tp.acc) ~energy_mj:(per_scored tp tp.mj)
      ~certified_floor:(Bstat.mean_list tp.floors) ~heap_mb:loop.heap_mb
  in
  let a = Span.analyse tr in
  let dense, greedy = provenance_counts tt.provs in
  let stat name = Option.value ~default:0. (List.assoc_opt name stats_traced) in
  let per_layer =
    Replay.metrics a rows
    @ [
        m "core.lp_lf.plan_ms" "ms" (Span.mean_ms a "core.lp_lf.plan");
        m "core.robust_plan.dense_rescues" "count" (float_of_int dense);
        m "core.robust_plan.greedy_fallbacks" "count" (float_of_int greedy);
        m "core.guarantee.compute_ms" "ms" (Span.mean_ms a "core.guarantee.compute");
        m "serve.run_ms" "ms" (Span.mean_ms a "serve.run");
        m "serve.wait_ms" "ms" (Bstat.mean_list tt.waits);
        m "serve.coordinator_ms" "ms" (Bstat.mean_list tt.coordinator);
        m "serve.domain_busy_frac" "fraction"
          (tt.busy_ms /. Float.max 1e-9 (float_of_int domains *. tt.run_ms));
        m "serve.update_window_ms" "ms" (Span.mean_ms a "serve.update_window");
        m "serve.hit_ratio" "fraction"
          ((stat "cache_hits" +. stat "coalesced") /. Float.max 1. (stat "queries"));
      ]
    @ List.filter_map
        (fun (k, v) ->
          if String.equal k "queries" then None else Some (m ("serve." ^ k) "count" v))
        stats_traced
    @ [
        m "sampling.window_draw_ms" "ms"
          (if cfg.trace then Span.mean_ms a "sampling.window_draw"
           else Bstat.mean_list !draw_ms);
        m "obs.trace_overhead_pct" "%"
          (100. *. ((Bstat.median loop.traced /. Bstat.median loop.plain) -. 1.));
        m "host.calib_ms" "ms" ((calib0 +. calib1) /. 2.);
      ]
  in
  let fi = float_of_int in
  {
    end_to_end = e2e;
    per_layer;
    counts =
      List.map (fun (k, v) -> ("serve." ^ k, v)) stats_plain
      @ [
          ("accuracy_sum", tp.acc);
          ("energy_sum", tp.mj);
          ("floor_sum", List.fold_left ( +. ) 0. tp.floors);
        ]
      @ Replay.counts rows;
    record =
      [
        ("clients", Obs.Json.Num (fi clients));
        ("domains", Obs.Json.Num (fi domains));
        ("rounds_timed", Obs.Json.Num (fi tp.rounds));
        ("rounds_traced", Obs.Json.Num (fi tt.rounds));
        ("queries_timed", Obs.Json.Num (fi nq));
        ("guaranteed_answers", Obs.Json.Num (fi (List.length tp.floors)));
        ("replayed_rounds", Obs.Json.Num (fi (List.length !prefix)));
        ("heap_after_rounds", Obs.Json.Num (fi heap_rounds));
        ("setups_timed", Obs.Json.Num (fi (setup_count setups)));
        ("latency_tail", tail_json tail);
        ( "latency_samples",
          Obs.Json.Str "rounds: every query of a round is answered at its end" );
        ( "serve_counts_timed",
          Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Num v)) stats_plain) );
        ("host_calib_ms", Obs.Json.List [ Obs.Json.Num calib0; Obs.Json.Num calib1 ]);
        ("pace", pace_json ~domains:domains loop.pace);
      ];
    checks;
    spans = tr;
  }
