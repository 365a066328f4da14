(* Second PROSPECTOR test battery: cost accounting details, proof theory
   corollaries, reliability under failures, rounding bounds, and planner
   edge cases not covered by the main suite. *)

let check_float = Alcotest.(check (float 1e-6))

let mica = Sensor.Mica2.default

let chain n = Sensor.Topology.of_parents ~root:0 (Array.init n (fun i -> i - 1))

let star n =
  let parent = Array.make n 0 in
  parent.(0) <- -1;
  Sensor.Topology.of_parents ~root:0 parent

let random_tree rng n =
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  Sensor.Topology.of_parents ~root:0 parent

let random_readings rng n =
  Array.init n (fun _ -> Rng.gaussian rng ~mu:20. ~sigma:5.)

let ids answer = List.map fst answer

(* ---------- Plan cost accounting ---------- *)

let test_trigger_star () =
  let topo = star 6 in
  let plan = Prospector.Plan.make topo [| 0; 1; 1; 0; 1; 0 |] in
  (* Only the root broadcasts, to its three participating children. *)
  check_float "one broadcast, three receivers"
    (Sensor.Mica2.trigger_mj mica ~receivers:3)
    (Prospector.Plan.trigger_mj topo mica plan)

let test_trigger_empty_plan () =
  let topo = star 4 in
  let plan = Prospector.Plan.make topo [| 0; 0; 0; 0 |] in
  check_float "no participants, no trigger" 0.
    (Prospector.Plan.trigger_mj topo mica plan)

let test_install_counts_edges () =
  let topo = chain 5 in
  let plan = Prospector.Plan.make topo [| 0; 1; 1; 0; 0 |] in
  check_float "two participating edges"
    (2. *. Sensor.Mica2.plan_install_mj mica)
    (Prospector.Plan.install_mj topo mica plan)

let test_total_bandwidth () =
  let topo = chain 4 in
  let plan = Prospector.Plan.make topo [| 0; 3; 2; 1 |] in
  Alcotest.(check int) "sum" 6 (Prospector.Plan.total_bandwidth plan)

let test_of_fractional_up_mode () =
  let topo = chain 4 in
  let plan =
    Prospector.Plan.of_fractional ~round:`Up topo [| 0.; 2.1; 1.01; 0.2 |]
  in
  Alcotest.(check int) "2.1 ceils to 3 (capped by inflow 2+1)" 3
    (Prospector.Plan.bandwidth plan 1);
  Alcotest.(check int) "1.01 ceils to 2" 2 (Prospector.Plan.bandwidth plan 2);
  Alcotest.(check int) "0.2 ceils to 1" 1 (Prospector.Plan.bandwidth plan 3)

let test_plan_length_mismatch () =
  let topo = chain 3 in
  Alcotest.check_raises "length checked"
    (Invalid_argument "Plan.make: length mismatch") (fun () ->
      ignore (Prospector.Plan.make topo [| 0; 1 |]))

(* ---------- Exec details ---------- *)

let test_exec_k_larger_than_network () =
  let topo = chain 3 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let plan = Prospector.Plan.make topo [| 0; 2; 1 |] in
  let o =
    Prospector.Exec.collect topo cost plan ~k:10 ~readings:[| 1.; 2.; 3. |]
  in
  Alcotest.(check int) "returns all values" 3
    (List.length o.Prospector.Exec.returned)

let test_exec_rejects_bad_lengths () =
  let topo = chain 3 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let plan = Prospector.Plan.make topo [| 0; 1; 1 |] in
  Alcotest.check_raises "readings length checked"
    (Invalid_argument "Exec.collect: readings length mismatch") (fun () ->
      ignore (Prospector.Exec.collect topo cost plan ~k:1 ~readings:[| 1. |]))

let exec_message_count_is_participants =
  QCheck.Test.make
    ~name:"one message per participating non-root node" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 21) in
      let n = 2 + Rng.int rng 30 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let bw =
        Array.init n (fun i -> if i = 0 then 0 else Rng.int rng 3)
      in
      let plan = Prospector.Plan.make topo bw in
      let o =
        Prospector.Exec.collect topo cost plan ~k:5
          ~readings:(random_readings rng n)
      in
      let participants =
        List.length (Prospector.Plan.participants topo plan) - 1
      in
      o.Prospector.Exec.messages = participants)

let exec_values_sent_bounded_by_bandwidth =
  QCheck.Test.make ~name:"no edge exceeds its bandwidth" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 22) in
      let n = 2 + Rng.int rng 30 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let bw = Array.init n (fun i -> if i = 0 then 0 else Rng.int rng 4) in
      let plan = Prospector.Plan.make topo bw in
      let o =
        Prospector.Exec.collect topo cost plan ~k:6
          ~readings:(random_readings rng n)
      in
      o.Prospector.Exec.values_sent
      <= Prospector.Plan.total_bandwidth plan)

(* ---------- Naive details ---------- *)

let test_naive_one_chain_messages () =
  (* Chain 0<-1<-2, k=1: root asks node 1, which asks node 2; node 2 sends
     one value; node 1 forwards its max.  Messages: 2 requests + 2
     responses (the protocol pulls exactly one value per edge). *)
  let topo = chain 3 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let o = Prospector.Naive.naive_one topo cost ~k:1 ~readings:[| 1.; 2.; 3. |] in
  Alcotest.(check int) "messages" 4 o.Prospector.Naive.messages;
  Alcotest.(check int) "values" 2 o.Prospector.Naive.values_sent;
  Alcotest.(check (list int)) "answer" [ 2 ] (ids o.Prospector.Naive.returned)

let test_naive_one_star_messages () =
  (* Star with 3 leaves, k=1: the root must fill its heap from every leaf:
     3 requests + 3 one-value responses. *)
  let topo = star 4 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let o =
    Prospector.Naive.naive_one topo cost ~k:1 ~readings:[| 0.; 3.; 2.; 1. |]
  in
  Alcotest.(check int) "messages" 6 o.Prospector.Naive.messages;
  Alcotest.(check int) "values" 3 o.Prospector.Naive.values_sent

let test_naive_k_exhausts_small_subtrees () =
  let topo = star 3 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let o = Prospector.Naive.naive_k topo cost ~k:5 ~readings:[| 1.; 2.; 3. |] in
  (* Leaves have single values; they send exactly one each. *)
  Alcotest.(check int) "values" 2 o.Prospector.Naive.values_sent

let test_flood_trigger () =
  let topo = chain 4 in
  check_float "three broadcasts of one receiver"
    (3. *. Sensor.Mica2.trigger_mj mica ~receivers:1)
    (Prospector.Naive.flood_trigger_mj topo mica)

(* ---------- Proof theory corollaries ---------- *)

let min_plan_proves_the_maximum =
  QCheck.Test.make
    ~name:"bandwidth-1 proof plans always prove the network maximum"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 23) in
      let n = 2 + Rng.int rng 40 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan = Prospector.Proof_exec.min_bandwidth_plan topo in
      let o = Prospector.Proof_exec.run topo cost plan ~k:3 ~readings in
      o.Prospector.Proof_exec.proven_count >= 1
      && List.hd (ids o.Prospector.Proof_exec.result)
         = fst (List.hd (Prospector.Exec.true_top_k ~k:1 readings)))

let proven_counts_monotone_in_bandwidth =
  QCheck.Test.make
    ~name:"raising every bandwidth never proves fewer values" ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 24) in
      let n = 2 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 6 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let base_bw =
        Array.mapi
          (fun i size ->
            if i = 0 then 0 else 1 + Rng.int rng (Int.min size (k + 1)))
          topo.Sensor.Topology.subtree_size
      in
      let bigger_bw =
        Array.mapi
          (fun i b -> if i = 0 then 0 else b + 1)
          base_bw
      in
      let run bw =
        (Prospector.Proof_exec.run topo cost (Prospector.Plan.make topo bw) ~k
           ~readings)
          .Prospector.Proof_exec.proven_count
      in
      run bigger_bw >= run base_bw)

let test_proof_exec_energy_matches_sent () =
  let topo = chain 3 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let plan = Prospector.Plan.make topo [| 0; 2; 1 |] in
  let o = Prospector.Proof_exec.run topo cost plan ~k:2 ~readings:[| 1.; 2.; 3. |] in
  check_float "energy is per-message + per-value of what was sent"
    (Sensor.Cost.message_mj cost ~node:2 ~values:1
    +. Sensor.Cost.message_mj cost ~node:1 ~values:2)
    o.Prospector.Proof_exec.collection_mj

(* ---------- Exact extras ---------- *)

let exact_agrees_with_naive =
  QCheck.Test.make ~name:"EXACT and NAIVE-k return identical answers"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 25) in
      let n = 2 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 6 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan = Prospector.Proof_exec.min_bandwidth_plan topo in
      let e = Prospector.Exact.run topo cost mica plan ~k ~readings in
      let nk = Prospector.Naive.naive_k topo cost ~k ~readings in
      ids e.Prospector.Exact.answer = ids nk.Prospector.Naive.returned)

let test_exact_total () =
  let topo = chain 4 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let plan = Prospector.Proof_exec.min_bandwidth_plan topo in
  let o =
    Prospector.Exact.run topo cost mica plan ~k:2
      ~readings:[| 1.; 4.; 3.; 2. |]
  in
  check_float "total is the sum of phases"
    (o.Prospector.Exact.phase1_mj +. o.Prospector.Exact.phase2_mj)
    (Prospector.Exact.total_mj o)

(* ---------- Reliability ---------- *)

let failures_never_lose_answers =
  QCheck.Test.make
    ~name:"the reliable protocol delivers the same answer under failures"
    ~count:100
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 26) in
      let n = 2 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 5 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let bw =
        Array.mapi
          (fun i size -> if i = 0 then 0 else Rng.int rng (Int.min size k + 1))
          topo.Sensor.Topology.subtree_size
      in
      let plan = Prospector.Plan.make topo bw in
      let clean = Prospector.Simnet_exec.collect topo mica plan ~k ~readings in
      let failure =
        Sensor.Failure.uniform (Rng.create seed) ~n ~max_prob:0.6 ~max_factor:4.
      in
      let lossy =
        Prospector.Simnet_exec.collect topo mica
          ~fault:(Simnet.Fault.of_failure failure, Rng.create (seed + 1))
          plan ~k ~readings
      in
      ids clean.Prospector.Simnet_exec.returned
      = ids lossy.Prospector.Simnet_exec.returned
      && lossy.Prospector.Simnet_exec.total_mj
         >= clean.Prospector.Simnet_exec.total_mj -. 1e-9)

(* ---------- Planner extras ---------- *)

let lp_lf_cost_within_rounding_bound =
  QCheck.Test.make
    ~name:"rounded LP+LF plans stay within ~2x the budget" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 27) in
      let n = 4 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 5 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let f =
        Sampling.Field.random_gaussian rng ~n ~mean_lo:10. ~mean_hi:30.
          ~sigma_lo:0.5 ~sigma_hi:5.
      in
      let samples = Sampling.Sample_set.draw rng f ~k ~count:8 in
      let budget = 1. +. Rng.float rng 30. in
      let r = Prospector.Lp_lf.plan topo cost samples ~budget ~k in
      Prospector.Plan.expected_collection_mj topo cost r.Prospector.Lp_lf.plan
      <= (2. *. budget) +. 2.)

let greedy_only_picks_useful_nodes =
  QCheck.Test.make ~name:"GREEDY ships only nodes that appear in samples"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 28) in
      let n = 3 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 5 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let f =
        Sampling.Field.random_gaussian rng ~n ~mean_lo:0. ~mean_hi:30.
          ~sigma_lo:0.5 ~sigma_hi:4.
      in
      let samples = Sampling.Sample_set.draw rng f ~k ~count:6 in
      let plan = Prospector.Greedy.plan topo cost samples ~budget:1e9 in
      (* The number of shipped values equals the chosen-node count, and
         only positive-colsum nodes are chosen; leaf bandwidths witness
         the selection. *)
      let ok = ref true in
      Array.iteri
        (fun i bw ->
          if
            Array.length topo.Sensor.Topology.children.(i) = 0
            && bw > 0
            && samples.Sampling.Sample_set.colsum.(i) = 0
          then ok := false)
        (Array.init n (fun i -> Prospector.Plan.bandwidth plan i));
      !ok)

let test_lp_lf_zero_budget () =
  let topo = star 5 in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let rng = Rng.create 3 in
  let f =
    Sampling.Field.random_gaussian rng ~n:5 ~mean_lo:0. ~mean_hi:10.
      ~sigma_lo:1. ~sigma_hi:2.
  in
  let samples = Sampling.Sample_set.draw rng f ~k:2 ~count:5 in
  let r = Prospector.Lp_lf.plan topo cost samples ~budget:0. ~k:2 in
  Alcotest.(check int) "empty plan" 0
    (Prospector.Plan.total_bandwidth r.Prospector.Lp_lf.plan)

let test_simnet_latency_positive () =
  let topo = chain 4 in
  let plan = Prospector.Plan.make topo [| 0; 1; 1; 1 |] in
  let r =
    Prospector.Simnet_exec.collect topo mica plan ~k:2
      ~readings:[| 1.; 2.; 3.; 4. |]
  in
  Alcotest.(check bool) "latency grows with depth" true
    (r.Prospector.Simnet_exec.latency_s > 0.01);
  Alcotest.(check int) "one unicast per participant" 3
    r.Prospector.Simnet_exec.unicasts

(* ---------- Evaluate extras ---------- *)

let test_evaluate_baselines () =
  let rng = Rng.create 5 in
  let n = 20 in
  let topo = random_tree rng n in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let epochs = Array.init 4 (fun _ -> random_readings rng n) in
  let o = Prospector.Evaluate.oracle topo cost mica ~k:3 ~epochs in
  Alcotest.(check bool) "oracle replans per epoch: install > 0" true
    (o.Prospector.Evaluate.install_mj > 0.);
  let n1 = Prospector.Evaluate.naive_one topo cost ~k:3 ~epochs in
  check_float "naive-1 has no trigger" 0. n1.Prospector.Evaluate.trigger_mj;
  let op = Prospector.Evaluate.oracle_proof topo cost mica ~k:3 ~epochs in
  Alcotest.(check bool) "oracle-proof visits everyone" true
    (op.Prospector.Evaluate.messages = float_of_int (n - 1))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      exec_message_count_is_participants;
      exec_values_sent_bounded_by_bandwidth;
      min_plan_proves_the_maximum;
      proven_counts_monotone_in_bandwidth;
      exact_agrees_with_naive;
      failures_never_lose_answers;
      lp_lf_cost_within_rounding_bound;
      greedy_only_picks_useful_nodes;
    ]

let () =
  Alcotest.run "prospector_extra"
    [
      ( "plan_costs",
        [
          Alcotest.test_case "trigger on star" `Quick test_trigger_star;
          Alcotest.test_case "trigger of empty plan" `Quick test_trigger_empty_plan;
          Alcotest.test_case "install counts edges" `Quick test_install_counts_edges;
          Alcotest.test_case "total bandwidth" `Quick test_total_bandwidth;
          Alcotest.test_case "ceil rounding mode" `Quick test_of_fractional_up_mode;
          Alcotest.test_case "length mismatch" `Quick test_plan_length_mismatch;
        ] );
      ( "exec_extra",
        [
          Alcotest.test_case "k larger than network" `Quick test_exec_k_larger_than_network;
          Alcotest.test_case "bad readings length" `Quick test_exec_rejects_bad_lengths;
        ] );
      ( "naive_extra",
        [
          Alcotest.test_case "NAIVE-1 chain message count" `Quick test_naive_one_chain_messages;
          Alcotest.test_case "NAIVE-1 star message count" `Quick test_naive_one_star_messages;
          Alcotest.test_case "NAIVE-k exhausts small subtrees" `Quick
            test_naive_k_exhausts_small_subtrees;
          Alcotest.test_case "flood trigger" `Quick test_flood_trigger;
        ] );
      ( "proof_extra",
        [
          Alcotest.test_case "proof energy accounting" `Quick
            test_proof_exec_energy_matches_sent;
        ] );
      ( "exact_extra",
        [ Alcotest.test_case "total = phase1 + phase2" `Quick test_exact_total ] );
      ( "planner_extra",
        [
          Alcotest.test_case "LP+LF zero budget" `Quick test_lp_lf_zero_budget;
          Alcotest.test_case "simnet latency & unicasts" `Quick test_simnet_latency_positive;
        ] );
      ( "evaluate_extra",
        [ Alcotest.test_case "baseline points" `Quick test_evaluate_baselines ] );
      ("properties", qcheck_cases);
    ]
