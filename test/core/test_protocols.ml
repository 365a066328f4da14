(* Message-level protocol implementations vs the analytic executors: the
   strongest check that the planners' cost accounting matches what a real
   network of motes would spend. *)

let mica = Sensor.Mica2.default

let random_tree rng n =
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  Sensor.Topology.of_parents ~root:0 parent

let random_readings rng n =
  Array.init n (fun _ -> Rng.gaussian rng ~mu:20. ~sigma:5.)

let ids answer = List.map fst answer

let naive_one_protocol_matches_analytic =
  QCheck.Test.make
    ~name:"NAIVE-1 protocol: same answer and energy as the analytic model"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 51) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 8 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let analytic = Prospector.Naive.naive_one topo cost ~k ~readings in
      let proto = Prospector.Simnet_protocols.naive_one topo mica ~k ~readings () in
      ids analytic.Prospector.Naive.returned
      = ids proto.Prospector.Simnet_protocols.returned
      && Float.abs
           (proto.Prospector.Simnet_protocols.total_mj
           -. analytic.Prospector.Naive.collection_mj)
         < 1e-6
      && proto.Prospector.Simnet_protocols.unicasts
         = analytic.Prospector.Naive.messages)

let naive_k_via_simnet_matches =
  QCheck.Test.make
    ~name:"NAIVE-k as a full-bandwidth simnet plan: same answer and energy"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 52) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 8 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let analytic = Prospector.Naive.naive_k topo cost ~k ~readings in
      let plan =
        Prospector.Plan.make topo
          (Array.mapi
             (fun i size ->
               if i = topo.Sensor.Topology.root then 0 else Int.min size k)
             topo.Sensor.Topology.subtree_size)
      in
      let proto = Prospector.Simnet_exec.collect topo mica plan ~k ~readings in
      let expected =
        analytic.Prospector.Naive.collection_mj
        +. Prospector.Naive.flood_trigger_mj topo mica
      in
      ids analytic.Prospector.Naive.returned
      = ids proto.Prospector.Simnet_exec.returned
      && Float.abs (proto.Prospector.Simnet_exec.total_mj -. expected) < 1e-6)

let proof_protocol_matches_analytic =
  QCheck.Test.make
    ~name:"proof protocol: same result, proven count and energy as Proof_exec"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 53) in
      let n = 2 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 6 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan =
        Prospector.Plan.make topo
          (Array.mapi
             (fun i size ->
               if i = topo.Sensor.Topology.root then 0
               else 1 + Rng.int rng (Int.min size (k + 2)))
             topo.Sensor.Topology.subtree_size)
      in
      let analytic = Prospector.Proof_exec.run topo cost plan ~k ~readings in
      let proto =
        Prospector.Simnet_protocols.proof_collect topo mica plan ~k ~readings ()
      in
      let expected_mj =
        analytic.Prospector.Proof_exec.collection_mj
        +. Prospector.Naive.flood_trigger_mj topo mica
      in
      ids analytic.Prospector.Proof_exec.result
      = ids proto.Prospector.Simnet_protocols.base.Prospector.Simnet_protocols.returned
      && proto.Prospector.Simnet_protocols.proven_count
         = analytic.Prospector.Proof_exec.proven_count
      && Float.abs
           (proto.Prospector.Simnet_protocols.base
              .Prospector.Simnet_protocols.total_mj
           -. expected_mj)
         < 1e-6)

let protocols_survive_failures =
  QCheck.Test.make
    ~name:"protocols deliver identical answers under transient failures"
    ~count:80
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 54) in
      let n = 2 + Rng.int rng 20 in
      let k = 1 + Rng.int rng 5 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let failure =
        Sensor.Failure.uniform (Rng.create seed) ~n ~max_prob:0.5 ~max_factor:3.
      in
      let clean = Prospector.Simnet_protocols.naive_one topo mica ~k ~readings () in
      let lossy =
        Prospector.Simnet_protocols.naive_one topo mica
          ~fault:(Simnet.Fault.of_failure failure, Rng.create (seed + 1))
          ~k ~readings ()
      in
      ids clean.Prospector.Simnet_protocols.returned
      = ids lossy.Prospector.Simnet_protocols.returned
      && lossy.Prospector.Simnet_protocols.total_mj
         >= clean.Prospector.Simnet_protocols.total_mj -. 1e-9)

let test_naive_one_latency_exceeds_naive_k () =
  (* Pipelining pays in latency: k sequential round trips dwarf the single
     bottom-up wave. *)
  let rng = Rng.create 7 in
  let n = 25 and k = 6 in
  let topo = random_tree rng n in
  let readings = random_readings rng n in
  let pull = Prospector.Simnet_protocols.naive_one topo mica ~k ~readings () in
  let plan =
    Prospector.Plan.make topo
      (Array.mapi
         (fun i size -> if i = 0 then 0 else Int.min size k)
         topo.Sensor.Topology.subtree_size)
  in
  let wave = Prospector.Simnet_exec.collect topo mica plan ~k ~readings in
  Alcotest.(check bool) "pull latency higher" true
    (pull.Prospector.Simnet_protocols.latency_s
    > wave.Prospector.Simnet_exec.latency_s)

let test_proof_protocol_rejects_zero_bandwidth () =
  let topo = random_tree (Rng.create 9) 5 in
  let plan = Prospector.Plan.make topo (Array.make 5 0) in
  Alcotest.check_raises "zero bandwidth"
    (Invalid_argument "Simnet_protocols.proof_collect: proof plans use every edge")
    (fun () ->
      ignore
        (Prospector.Simnet_protocols.proof_collect topo mica plan ~k:2
           ~readings:(Array.make 5 1.) ()))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      naive_one_protocol_matches_analytic;
      naive_k_via_simnet_matches;
      proof_protocol_matches_analytic;
      protocols_survive_failures;
    ]

(* The two-phase exact protocol vs the analytic Exact. *)
let exact_protocol_matches_analytic =
  QCheck.Test.make
    ~name:"exact protocol: same answer, proven count and energy as Exact.run"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 55) in
      let n = 2 + Rng.int rng 25 in
      let k = 1 + Rng.int rng 7 in
      let topo = random_tree rng n in
      let cost = Sensor.Cost.of_mica2 topo mica in
      let readings = random_readings rng n in
      let plan =
        Prospector.Plan.make topo
          (Array.mapi
             (fun i size ->
               if i = topo.Sensor.Topology.root then 0
               else 1 + Rng.int rng (Int.min size (k + 2)))
             topo.Sensor.Topology.subtree_size)
      in
      let analytic = Prospector.Exact.run topo cost mica plan ~k ~readings in
      let proto =
        Prospector.Simnet_protocols.exact topo mica plan ~k ~readings ()
      in
      let expected_mj =
        Prospector.Exact.total_mj analytic
        +. Prospector.Naive.flood_trigger_mj topo mica
      in
      ids analytic.Prospector.Exact.answer
      = ids proto.Prospector.Simnet_protocols.answer
      && proto.Prospector.Simnet_protocols.proven_after_phase1
         = analytic.Prospector.Exact.proven_after_phase1
      && Float.abs (proto.Prospector.Simnet_protocols.total_mj -. expected_mj)
         < 1e-6)

let exact_protocol_is_exact =
  QCheck.Test.make ~name:"exact protocol answers are the true top k"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rng = Rng.create (seed + 56) in
      let n = 2 + Rng.int rng 30 in
      let k = 1 + Rng.int rng 7 in
      let topo = random_tree rng n in
      let readings = random_readings rng n in
      let plan = Prospector.Proof_exec.min_bandwidth_plan topo in
      let proto =
        Prospector.Simnet_protocols.exact topo mica plan ~k ~readings ()
      in
      ids proto.Prospector.Simnet_protocols.answer
      = ids (Prospector.Exec.true_top_k ~k readings))

let () =
  Alcotest.run "protocols"
    [
      ( "protocols",
        [
          Alcotest.test_case "pipelining costs latency" `Quick
            test_naive_one_latency_exceeds_naive_k;
          Alcotest.test_case "proof plan validation" `Quick
            test_proof_protocol_rejects_zero_bandwidth;
        ] );
      ( "properties",
        qcheck_cases
        @ List.map QCheck_alcotest.to_alcotest
            [ exact_protocol_matches_analytic; exact_protocol_is_exact ] );
    ]
