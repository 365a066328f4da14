(* Tests for the discrete-event engine: event ordering, message delivery,
   energy conservation, failures and timers. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---- Event_queue ---- *)

let test_queue_order () =
  let q = Simnet.Event_queue.create () in
  Simnet.Event_queue.add q ~time:3. "c";
  Simnet.Event_queue.add q ~time:1. "a";
  Simnet.Event_queue.add q ~time:2. "b";
  let order = List.init 3 (fun _ -> snd (Option.get (Simnet.Event_queue.pop q))) in
  Alcotest.(check (list string)) "sorted by time" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "drained" true (Simnet.Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Simnet.Event_queue.create () in
  for i = 0 to 9 do
    Simnet.Event_queue.add q ~time:1. i
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Simnet.Event_queue.pop q))) in
  Alcotest.(check (list int)) "insertion order on ties" (List.init 10 Fun.id) order

let test_queue_nan_rejected () =
  let q = Simnet.Event_queue.create () in
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Event_queue.add: NaN time") (fun () ->
      Simnet.Event_queue.add q ~time:Float.nan ())

let test_queue_fifo_across_pops () =
  (* FIFO on equal timestamps must survive arbitrary add/pop interleavings
     — the pattern retransmission timers produce when they re-arm mid-drain
     at a timestamp that collides with queued deliveries. *)
  let q = Simnet.Event_queue.create () in
  Simnet.Event_queue.add q ~time:1. 0;
  Simnet.Event_queue.add q ~time:1. 1;
  let popped = ref [] in
  let pop () = popped := snd (Option.get (Simnet.Event_queue.pop q)) :: !popped in
  pop ();
  Simnet.Event_queue.add q ~time:1. 2;
  pop ();
  Simnet.Event_queue.add q ~time:1. 3;
  Simnet.Event_queue.add q ~time:0.5 99;
  pop ();
  (* the earlier event jumps the tie group... *)
  pop ();
  pop ();
  Alcotest.(check (list int)) "ties stay FIFO across interleaved adds"
    [ 0; 1; 99; 2; 3 ] (List.rev !popped)

let test_queue_burst_drain () =
  (* A large burst followed by a full drain: ordering holds and the
     backing array shrinks back down (exercised for memory hygiene; the
     capacity itself is not observable). *)
  let q = Simnet.Event_queue.create () in
  for i = 0 to 9_999 do
    Simnet.Event_queue.add q ~time:(float_of_int (i mod 7)) i
  done;
  let last_time = ref neg_infinity and last_seq = ref (-1) and ok = ref true in
  let rec drain count =
    match Simnet.Event_queue.pop q with
    | None -> count
    | Some (t, i) ->
        if t < !last_time then ok := false;
        if t > !last_time then last_seq := -1;
        (* within a tie group, insertion order = increasing payload here *)
        if i <= !last_seq then ok := false;
        last_time := t;
        last_seq := i;
        drain (count + 1)
  in
  let drained = drain 0 in
  Alcotest.(check int) "all events drained" 10_000 drained;
  Alcotest.(check bool) "order respected throughout" true !ok;
  Alcotest.(check int) "empty after drain" 0 (Simnet.Event_queue.length q)

let test_queue_interleaved () =
  let q = Simnet.Event_queue.create () in
  let rng = Rng.create 1 in
  let last = ref neg_infinity in
  for _ = 1 to 200 do
    Simnet.Event_queue.add q ~time:(Rng.float rng 100.) ()
  done;
  let ok = ref true in
  let rec drain () =
    match Simnet.Event_queue.pop q with
    | None -> ()
    | Some (t, ()) ->
        if t < !last then ok := false;
        last := t;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "monotone pops" true !ok

(* ---- Engine ---- *)

let chain n = Sensor.Topology.of_parents ~root:0 (Array.init n (fun i -> i - 1))

let mica = Sensor.Mica2.default

let test_engine_delivery () =
  let topo = chain 3 in
  let engine =
    Simnet.Engine.create topo mica ~payload_bytes:(fun _ -> 4) ()
  in
  let log = ref [] in
  (* Leaf 2 sends "hello" up to 1, which forwards to the root. *)
  Simnet.Engine.on_message engine ~node:1 (fun api ~src msg ->
      log := (1, src, msg) :: !log;
      api.Simnet.Engine.send ~dst:0 msg);
  Simnet.Engine.on_message engine ~node:0 (fun _ ~src msg ->
      log := (0, src, msg) :: !log);
  Simnet.Engine.on_message engine ~node:2 (fun api ~src:_ msg ->
      api.Simnet.Engine.send ~dst:1 msg);
  Simnet.Engine.inject engine ~node:2 "hello";
  let end_time = Simnet.Engine.run engine in
  Alcotest.(check (list (triple int int string)))
    "relay order" [ (0, 1, "hello"); (1, 2, "hello") ] !log;
  Alcotest.(check int) "two unicasts" 2 (Simnet.Engine.unicasts_sent engine);
  Alcotest.(check bool) "time advanced" true (end_time > 0.)

let test_engine_energy_conservation () =
  let topo = chain 2 in
  let engine =
    Simnet.Engine.create topo mica ~payload_bytes:(fun _ -> 10) ()
  in
  Simnet.Engine.on_message engine ~node:1 (fun api ~src:_ () ->
      api.Simnet.Engine.send ~dst:0 ());
  Simnet.Engine.on_message engine ~node:0 (fun _ ~src:_ () -> ());
  Simnet.Engine.inject engine ~node:1 ();
  ignore (Simnet.Engine.run engine);
  check_float "ledgers sum to the unicast cost"
    (Sensor.Mica2.unicast_bytes_mj mica ~bytes:10)
    (Simnet.Engine.total_energy engine)

let test_engine_rejects_non_neighbor () =
  let topo = chain 3 in
  let engine = Simnet.Engine.create topo mica ~payload_bytes:(fun _ -> 0) () in
  let failed = ref false in
  Simnet.Engine.on_message engine ~node:2 (fun api ~src:_ () ->
      try api.Simnet.Engine.send ~dst:0 () with Invalid_argument _ -> failed := true);
  Simnet.Engine.inject engine ~node:2 ();
  ignore (Simnet.Engine.run engine);
  Alcotest.(check bool) "skip-level send rejected" true !failed

let test_engine_broadcast_and_multicast () =
  let topo = Sensor.Topology.of_parents ~root:0 [| -1; 0; 0; 0 |] in
  let engine = Simnet.Engine.create topo mica ~payload_bytes:(fun _ -> 0) () in
  let heard = ref [] in
  for i = 1 to 3 do
    Simnet.Engine.on_message engine ~node:i (fun api ~src:_ () ->
        heard := api.Simnet.Engine.self :: !heard)
  done;
  Simnet.Engine.on_message engine ~node:0 (fun api ~src:_ () ->
      api.Simnet.Engine.multicast ~dsts:[ 1; 3 ] ());
  Simnet.Engine.inject engine ~node:0 ();
  ignore (Simnet.Engine.run engine);
  Alcotest.(check (list int)) "only multicast targets heard" [ 1; 3 ]
    (List.sort compare !heard);
  Alcotest.(check int) "one broadcast" 1 (Simnet.Engine.broadcasts_sent engine);
  check_float "multicast cost"
    (Sensor.Mica2.broadcast_mj mica ~receivers:2 ~bytes:0)
    (Simnet.Engine.total_energy engine)

let test_engine_timer () =
  let topo = chain 1 in
  let engine = Simnet.Engine.create topo mica ~payload_bytes:(fun _ -> 0) () in
  let fired = ref [] in
  Simnet.Engine.on_message engine ~node:0 (fun api ~src:_ () ->
      api.Simnet.Engine.set_timer ~delay:5. (fun () -> fired := 5 :: !fired);
      api.Simnet.Engine.set_timer ~delay:1. (fun () -> fired := 1 :: !fired));
  Simnet.Engine.inject engine ~node:0 ();
  let t = Simnet.Engine.run engine in
  Alcotest.(check (list int)) "timers fire in order" [ 5; 1 ] !fired;
  Alcotest.(check bool) "final time past last timer" true (t >= 5.)

let test_engine_failures_inflate () =
  let topo = chain 2 in
  let failure =
    {
      Sensor.Failure.fail_prob = [| 0.; 1. |];  (* edge 1 always fails *)
      reroute_factor = [| 1.; 2. |];
    }
  in
  let rng = Rng.create 1 in
  let engine =
    Simnet.Engine.create topo mica
      ~fault:(Simnet.Fault.of_failure failure, rng)
      ~payload_bytes:(fun _ -> 10)
      ()
  in
  Simnet.Engine.on_message engine ~node:1 (fun api ~src:_ () ->
      api.Simnet.Engine.send ~dst:0 ());
  Simnet.Engine.on_message engine ~node:0 (fun _ ~src:_ () -> ());
  Simnet.Engine.inject engine ~node:1 ();
  ignore (Simnet.Engine.run engine);
  Alcotest.(check int) "reroute recorded" 1 (Simnet.Engine.reroutes engine);
  check_float "cost doubled"
    (2. *. Sensor.Mica2.unicast_bytes_mj mica ~bytes:10)
    (Simnet.Engine.total_energy engine);
  Alcotest.(check int) "detour is not a loss" 0
    (Simnet.Engine.retransmissions_sent engine);
  Alcotest.(check int) "nothing dropped" 0 (Simnet.Engine.dropped_frames engine);
  Alcotest.check_raises "probability above 1 rejected"
    (Invalid_argument "Fault.of_failure: failure probability out of [0, 1]")
    (fun () ->
      ignore
        (Simnet.Fault.of_failure
           { failure with Sensor.Failure.fail_prob = [| 0.; 1.5 |] }));
  Alcotest.check_raises "factor below 1 rejected"
    (Invalid_argument "Fault.of_failure: reroute factor below 1") (fun () ->
      ignore
        (Simnet.Fault.of_failure
           { failure with Sensor.Failure.reroute_factor = [| 1.; 0.5 |] }))

let test_detours_stay_inside_rto () =
  (* A message relayed up a depth-5 chain whose every edge always fails
     with a 5x premium: each hop detours, and the extra transmission delay
     must stay inside the retransmission timeout, or spurious retransmits
     would show up as extra energy. *)
  let n = 6 in
  let topo = chain n in
  let run fault =
    let engine =
      Simnet.Engine.create topo mica ~fault ~policy:Simnet.Reliable.default_policy
        ~payload_bytes:(fun _ -> 10)
        ()
    in
    for u = 1 to n - 1 do
      Simnet.Engine.on_message engine ~node:u (fun api ~src:_ () ->
          api.Simnet.Engine.send ~dst:(u - 1) ())
    done;
    Simnet.Engine.on_message engine ~node:0 (fun _ ~src:_ () -> ());
    Simnet.Engine.inject engine ~node:(n - 1) ();
    let latency = Simnet.Engine.run engine in
    (engine, latency)
  in
  let lossless, t_lossless = run (Simnet.Fault.none ~n, Rng.create 3) in
  let failure =
    {
      Sensor.Failure.fail_prob = Array.make n 1.;
      reroute_factor = Array.make n 5.;
    }
  in
  let detoured, t_detoured =
    run (Simnet.Fault.of_failure failure, Rng.create 3)
  in
  Alcotest.(check int) "every hop detours" (n - 1)
    (Simnet.Engine.reroutes detoured);
  Alcotest.(check int) "no spurious retransmissions" 0
    (Simnet.Engine.retransmissions_sent detoured);
  check_float "energy is 5x the lossless run"
    (5. *. Simnet.Engine.total_energy lossless)
    (Simnet.Engine.total_energy detoured);
  Alcotest.(check bool) "detours add latency" true (t_detoured > t_lossless)

(* ---- fault injection & the reliability sublayer ---- *)

let test_reliable_lossless_equals_legacy () =
  (* With a fault model that never drops anything, the ACK/retransmit
     machinery must charge exactly what the direct path charges. *)
  let topo = chain 2 in
  let run fault =
    let engine =
      Simnet.Engine.create topo mica ?fault ~payload_bytes:(fun _ -> 10) ()
    in
    Simnet.Engine.on_message engine ~node:1 (fun api ~src:_ () ->
        api.Simnet.Engine.send ~dst:0 ());
    Simnet.Engine.on_message engine ~node:0 (fun _ ~src:_ () -> ());
    Simnet.Engine.inject engine ~node:1 ();
    ignore (Simnet.Engine.run engine);
    engine
  in
  let legacy = run None in
  let reliable = run (Some (Simnet.Fault.none ~n:2, Rng.create 1)) in
  check_float "same total energy"
    (Simnet.Engine.total_energy legacy)
    (Simnet.Engine.total_energy reliable);
  check_float "same split, node 0"
    (Simnet.Engine.energy_of legacy 0)
    (Simnet.Engine.energy_of reliable 0);
  Alcotest.(check int) "no retransmissions" 0
    (Simnet.Engine.retransmissions_sent reliable);
  Alcotest.(check int) "no drops" 0 (Simnet.Engine.dropped_frames reliable)

let test_reliable_in_order_exactly_once () =
  (* 20 messages through a 50%-lossy edge: every one arrives, exactly
     once, in send order — the sublayer restores FIFO with sequence
     numbers and suppresses the duplicates retransmission creates. *)
  let topo = chain 2 in
  let engine =
    Simnet.Engine.create topo mica
      ~fault:(Simnet.Fault.bernoulli ~n:2 ~drop:0.5, Rng.create 42)
      ~payload_bytes:(fun _ -> 4)
      ()
  in
  let received = ref [] in
  Simnet.Engine.on_message engine ~node:0 (fun _ ~src:_ i ->
      received := i :: !received);
  Simnet.Engine.on_message engine ~node:1 (fun api ~src:_ _ ->
      for i = 0 to 19 do
        api.Simnet.Engine.send ~dst:0 i
      done);
  Simnet.Engine.inject engine ~node:1 (-1);
  ignore (Simnet.Engine.run engine);
  Alcotest.(check (list int)) "in order, exactly once" (List.init 20 Fun.id)
    (List.rev !received);
  Alcotest.(check bool) "the loss was real" true
    (Simnet.Engine.retransmissions_sent engine > 0
    && Simnet.Engine.dropped_frames engine > 0);
  Alcotest.(check bool) "loss costs energy" true
    (Simnet.Engine.total_energy engine
    > 20. *. Sensor.Mica2.unicast_bytes_mj mica ~bytes:4)

let test_reliable_ack_loss_duplicates () =
  (* When an ACK dies the sender re-sends a frame the receiver already
     has; the duplicate is paid for (the radio heard it) but suppressed.
     Seed 42 above produces such collisions — pin the counter here. *)
  let topo = chain 2 in
  let engine =
    Simnet.Engine.create topo mica
      ~fault:(Simnet.Fault.bernoulli ~n:2 ~drop:0.5, Rng.create 42)
      ~payload_bytes:(fun _ -> 4)
      ()
  in
  let count = ref 0 in
  Simnet.Engine.on_message engine ~node:0 (fun _ ~src:_ _ -> incr count);
  Simnet.Engine.on_message engine ~node:1 (fun api ~src:_ _ ->
      for i = 0 to 19 do
        api.Simnet.Engine.send ~dst:0 i
      done);
  Simnet.Engine.inject engine ~node:1 (-1);
  ignore (Simnet.Engine.run engine);
  Alcotest.(check int) "handler saw each message once" 20 !count;
  Alcotest.(check bool) "duplicates were suppressed, not delivered" true
    (Simnet.Engine.duplicate_frames engine > 0)

let test_reliable_gives_up_on_dead_link () =
  let topo = chain 2 in
  let engine =
    Simnet.Engine.create topo mica
      ~fault:(Simnet.Fault.bernoulli ~n:2 ~drop:1., Rng.create 3)
      ~payload_bytes:(fun _ -> 4)
      ()
  in
  let delivered = ref 0 and abandoned = ref [] in
  Simnet.Engine.on_message engine ~node:0 (fun _ ~src:_ _ -> incr delivered);
  Simnet.Engine.on_message engine ~node:1 (fun api ~src:_ v ->
      api.Simnet.Engine.send ~dst:0 v);
  Simnet.Engine.on_give_up engine ~node:1 (fun _ ~dst msg ->
      abandoned := (dst, msg) :: !abandoned);
  Simnet.Engine.inject engine ~node:1 7;
  ignore (Simnet.Engine.run ~max_events:100_000 engine);
  Alcotest.(check int) "never delivered" 0 !delivered;
  Alcotest.(check (list (pair int int))) "give-up handler told" [ (0, 7) ]
    !abandoned;
  Alcotest.(check int) "counted" 1 (Simnet.Engine.gave_up engine);
  Alcotest.(check (list (pair int int))) "link declared dead" [ (1, 0) ]
    (Simnet.Engine.dead_links engine);
  (* A later send on the dead link fast-fails without touching the air. *)
  let before = Simnet.Engine.unicasts_sent engine in
  Simnet.Engine.inject engine ~node:1 1;
  ignore (Simnet.Engine.run engine);
  Alcotest.(check int) "fast-fail sends nothing" before
    (Simnet.Engine.unicasts_sent engine);
  Alcotest.(check (list (pair int int))) "second give-up" [ (0, 1); (0, 7) ]
    !abandoned

let test_crash_window_recovery () =
  (* The receiver's radio is down for the first 0.3 s; retransmissions
     with growing backoff must outlast the outage and deliver. *)
  let topo = chain 2 in
  let fault =
    Simnet.Fault.with_crashes (Simnet.Fault.none ~n:2) [ (0, 0., 0.3) ]
  in
  let engine =
    Simnet.Engine.create topo mica
      ~fault:(fault, Rng.create 5)
      ~payload_bytes:(fun _ -> 4)
      ()
  in
  let got = ref None in
  Simnet.Engine.on_message engine ~node:0 (fun api ~src:_ v ->
      got := Some (v, api.Simnet.Engine.time ()));
  Simnet.Engine.on_message engine ~node:1 (fun api ~src:_ v ->
      api.Simnet.Engine.send ~dst:0 v);
  Simnet.Engine.inject engine ~node:1 13;
  ignore (Simnet.Engine.run engine);
  (match !got with
  | None -> Alcotest.fail "message lost to a transient outage"
  | Some (v, at) ->
      Alcotest.(check int) "payload intact" 13 v;
      Alcotest.(check bool) "delivered after the radio came back" true
        (at >= 0.3));
  Alcotest.(check bool) "took retries" true
    (Simnet.Engine.retransmissions_sent engine > 0);
  Alcotest.(check (list (pair int int))) "no dead links" []
    (Simnet.Engine.dead_links engine)

let test_same_seed_same_run () =
  let run () =
    let topo = chain 3 in
    let engine =
      Simnet.Engine.create topo mica
        ~fault:
          ( Simnet.Fault.with_burst
              (Simnet.Fault.bernoulli ~n:3 ~drop:0.3)
              ~mean_length:0.05,
            Rng.create 11 )
        ~payload_bytes:(fun _ -> 6)
        ()
    in
    Simnet.Engine.on_message engine ~node:2 (fun api ~src:_ v ->
        api.Simnet.Engine.send ~dst:1 v);
    Simnet.Engine.on_message engine ~node:1 (fun api ~src:_ v ->
        api.Simnet.Engine.send ~dst:0 (v + 1));
    Simnet.Engine.on_message engine ~node:0 (fun _ ~src:_ _ -> ());
    for i = 0 to 9 do
      Simnet.Engine.inject engine ~node:2 i
    done;
    let t = Simnet.Engine.run engine in
    ( t,
      Simnet.Engine.total_energy engine,
      Simnet.Engine.retransmissions_sent engine,
      Simnet.Engine.dropped_frames engine,
      Simnet.Engine.duplicate_frames engine )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical repeat" true (a = b)

let test_combined_faults_deterministic () =
  (* All three fault layers at once: node 1 permanently crashed, burst
     windows opening over Bernoulli drops.  The relay through the crashed
     node must be abandoned (give-up handler and counter agree), and the
     composite run must be bit-identical under the same seed. *)
  let run () =
    let topo = chain 4 in
    let fault =
      Simnet.Fault.with_crashes
        (Simnet.Fault.with_burst
           (Simnet.Fault.bernoulli ~n:4 ~drop:0.1)
           ~mean_length:0.05)
        [ (1, 0., infinity) ]
    in
    let engine =
      Simnet.Engine.create topo mica
        ~fault:(fault, Rng.create 23)
        ~payload_bytes:(fun _ -> 6)
        ()
    in
    let delivered = ref 0 and abandoned = ref [] in
    Simnet.Engine.on_message engine ~node:3 (fun api ~src:_ v ->
        api.Simnet.Engine.send ~dst:2 v);
    Simnet.Engine.on_message engine ~node:2 (fun api ~src:_ v ->
        api.Simnet.Engine.send ~dst:1 v);
    Simnet.Engine.on_message engine ~node:1 (fun api ~src:_ v ->
        api.Simnet.Engine.send ~dst:0 v);
    Simnet.Engine.on_message engine ~node:0 (fun _ ~src:_ _ -> incr delivered);
    Simnet.Engine.on_give_up engine ~node:2 (fun _ ~dst msg ->
        abandoned := (dst, msg) :: !abandoned);
    Simnet.Engine.inject engine ~node:3 7;
    let t = Simnet.Engine.run ~max_events:1_000_000 engine in
    ( !delivered,
      !abandoned,
      Simnet.Engine.gave_up engine,
      Simnet.Engine.dead_links engine,
      Simnet.Engine.retransmissions_sent engine,
      Simnet.Engine.total_energy engine,
      t )
  in
  let ((delivered, abandoned, gave_up, dead_links, _, _, _) as a) = run () in
  Alcotest.(check int) "crash blocks delivery to the root" 0 delivered;
  Alcotest.(check (list (pair int int))) "hop 2->1 abandoned" [ (1, 7) ]
    abandoned;
  Alcotest.(check int) "give-up counter matches handler calls"
    (List.length abandoned) gave_up;
  Alcotest.(check (list (pair int int))) "the crashed link is declared dead"
    [ (2, 1) ] dead_links;
  let b = run () in
  Alcotest.(check bool) "bit-identical under the composite fault" true (a = b)

let test_engine_livelock_guard () =
  let topo = chain 2 in
  let engine = Simnet.Engine.create topo mica ~payload_bytes:(fun _ -> 0) () in
  (* Two nodes bounce a message forever. *)
  Simnet.Engine.on_message engine ~node:0 (fun api ~src:_ () ->
      api.Simnet.Engine.send ~dst:1 ());
  Simnet.Engine.on_message engine ~node:1 (fun api ~src:_ () ->
      api.Simnet.Engine.send ~dst:0 ());
  Simnet.Engine.inject engine ~node:0 ();
  (try
     ignore (Simnet.Engine.run ~max_events:1000 engine);
     Alcotest.fail "expected livelock failure"
   with Failure _ -> ())

let () =
  Alcotest.run "simnet"
    [
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_order;
          Alcotest.test_case "FIFO on ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "FIFO across interleaved pops" `Quick
            test_queue_fifo_across_pops;
          Alcotest.test_case "burst drain" `Quick test_queue_burst_drain;
          Alcotest.test_case "NaN rejected" `Quick test_queue_nan_rejected;
          Alcotest.test_case "random interleaving" `Quick test_queue_interleaved;
        ] );
      ( "engine",
        [
          Alcotest.test_case "hop-by-hop delivery" `Quick test_engine_delivery;
          Alcotest.test_case "energy conservation" `Quick test_engine_energy_conservation;
          Alcotest.test_case "non-neighbor rejected" `Quick test_engine_rejects_non_neighbor;
          Alcotest.test_case "broadcast and multicast" `Quick test_engine_broadcast_and_multicast;
          Alcotest.test_case "timers" `Quick test_engine_timer;
          Alcotest.test_case "failures inflate cost" `Quick test_engine_failures_inflate;
          Alcotest.test_case "detours stay inside the RTO" `Quick
            test_detours_stay_inside_rto;
          Alcotest.test_case "livelock guard" `Quick test_engine_livelock_guard;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "lossless = legacy energy" `Quick
            test_reliable_lossless_equals_legacy;
          Alcotest.test_case "in order, exactly once at 50% loss" `Quick
            test_reliable_in_order_exactly_once;
          Alcotest.test_case "ACK loss makes suppressed duplicates" `Quick
            test_reliable_ack_loss_duplicates;
          Alcotest.test_case "dead link gives up and fast-fails" `Quick
            test_reliable_gives_up_on_dead_link;
          Alcotest.test_case "crash window outlasted by retries" `Quick
            test_crash_window_recovery;
          Alcotest.test_case "same seed, same run" `Quick test_same_seed_same_run;
          Alcotest.test_case "crash + burst + bernoulli composite" `Quick
            test_combined_faults_deterministic;
        ] );
    ]
