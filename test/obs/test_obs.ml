(* Unit tests for the lib/obs telemetry stack: trace round-trips through
   the JSON-lines exporter, reader errors as results, the per-run report's
   aggregation and exact percentiles, and an end-to-end check that a lossy
   simnet run's trace agrees with the engine's own energy ledger. *)

let with_clean f () = Fun.protect ~finally:(fun () -> Obs.Trace.install None) f

(* ---- trace ---- *)

let sample_events =
  [
    {
      Obs.Trace.kind = Obs.Trace.Solve;
      name = "lp.revised";
      start_s = 100.5;
      dur_s = 0.25;
      attrs =
        [
          ("iterations", Obs.Trace.Int 42);
          ("status", Obs.Trace.Str "optimal");
          ("warm", Obs.Trace.Bool false);
          ("gap", Obs.Trace.Float 1.5e-9);
        ];
    };
    {
      Obs.Trace.kind = Obs.Trace.Retransmit;
      name = "simnet.engine";
      start_s = 0.;
      dur_s = 0.;
      attrs = [ ("src", Obs.Trace.Int 3); ("dst", Obs.Trace.Int 1) ];
    };
  ]

let test_emit_requires_sink () =
  Obs.Trace.emit Obs.Trace.Plan ~name:"nowhere" [];
  let sink = Obs.Trace.create () in
  Obs.Trace.install (Some sink);
  Obs.Trace.emit Obs.Trace.Plan ~name:"p1" [];
  Obs.Trace.emit Obs.Trace.Epoch ~name:"e1" [];
  Alcotest.(check int) "both events captured" 2 (Obs.Trace.length sink);
  Alcotest.(check (list string))
    "in emission order" [ "p1"; "e1" ]
    (List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events sink))

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.to_file path sample_events;
      match Obs.Trace.read_jsonl path with
      | Error msg -> Alcotest.failf "read_jsonl: %s" msg
      | Ok events ->
          Alcotest.(check int) "event count" 2 (List.length events);
          let e = List.hd events in
          Alcotest.(check bool) "kind" true (e.Obs.Trace.kind = Obs.Trace.Solve);
          Alcotest.(check string) "name" "lp.revised" e.Obs.Trace.name;
          Alcotest.(check (float 1e-12)) "start_s" 100.5 e.Obs.Trace.start_s;
          Alcotest.(check (float 1e-12)) "dur_s" 0.25 e.Obs.Trace.dur_s;
          Alcotest.(check (option (float 1e-12)))
            "int attr via number" (Some 42.)
            (Obs.Trace.number e "iterations");
          Alcotest.(check (option (float 1e-18)))
            "float attr survives" (Some 1.5e-9) (Obs.Trace.number e "gap");
          Alcotest.(check bool)
            "string attr" true
            (Obs.Trace.find_attr e "status" = Some (Obs.Trace.Str "optimal"));
          Alcotest.(check bool)
            "bool attr" true
            (Obs.Trace.find_attr e "warm" = Some (Obs.Trace.Bool false)))

let test_csv_export () =
  let path = Filename.temp_file "obs_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.to_csv_file path sample_events;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "header + one line per event" 3 (List.length lines);
      Alcotest.(check string) "header" "kind,name,start_s,dur_s,attrs"
        (List.hd lines))

(* A missing file is an [Error] from both result-returning readers, never
   an escaping [Sys_error]. *)
let test_missing_file_is_error () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "obs-no-such-dir/x"
  in
  Alcotest.(check bool)
    "read_jsonl" true
    (Result.is_error (Obs.Trace.read_jsonl (path ^ ".jsonl")));
  Alcotest.(check bool)
    "Json.of_file" true
    (Result.is_error (Obs.Json.of_file (path ^ ".json")))

(* ---- report ---- *)

let span kind name dur_s attrs =
  { Obs.Trace.kind; name; start_s = 0.; dur_s; attrs }

(* Five timed solves (given out of order), one certify pass and a
   zero-duration retransmit point event. *)
let report_events =
  [
    span Obs.Trace.Solve "lp.revised" 0.005 [ ("iterations", Obs.Trace.Int 7) ];
    span Obs.Trace.Solve "lp.revised" 0.001
      [ ("iterations", Obs.Trace.Int 2); ("status", Obs.Trace.Str "optimal") ];
    span Obs.Trace.Solve "lp.revised" 0.003 [ ("iterations", Obs.Trace.Int 4) ];
    span Obs.Trace.Solve "lp.revised" 0.002 [ ("iterations", Obs.Trace.Int 1) ];
    span Obs.Trace.Solve "lp.revised" 0.004
      [ ("iterations", Obs.Trace.Int 6); ("warm", Obs.Trace.Bool true) ];
    span Obs.Trace.Certify "lp.model" 0.0005
      [ ("duality_gap", Obs.Trace.Float 1.5e-9) ];
    span Obs.Trace.Retransmit "simnet.engine" 0. [ ("src", Obs.Trace.Int 3) ];
  ]

let test_report () =
  let r = Obs.Report.of_events report_events in
  let rows = Obs.Report.rows r in
  Alcotest.(check (list string))
    "rows sorted by (kind, name)"
    [ "lp.revised"; "lp.model"; "simnet.engine" ]
    (List.map (fun row -> row.Obs.Report.name) rows);
  let solve = List.hd rows in
  Alcotest.(check int) "solve count" 5 solve.Obs.Report.count;
  Alcotest.(check (float 1e-12)) "total" 0.015 solve.Obs.Report.total_dur_s;
  Alcotest.(check (float 0.)) "max" 0.005 solve.Obs.Report.max_dur_s;
  Alcotest.(check (list (pair string (float 0.))))
    "numeric attrs summed, by key" [ ("iterations", 20.) ]
    solve.Obs.Report.attr_sums;
  let lines = String.split_on_char '\n' (Format.asprintf "%a" Obs.Report.pp r) in
  let has line =
    Alcotest.(check bool) line true (List.exists (String.equal line) lines)
  in
  (* Nearest rank over the sorted durations: n = 5 puts p50 on the third
     value and p90/p99 on the fifth; a single sample is every percentile;
     point events have no latency line. *)
  has "solve durations: n=5 p50=3.000ms p90=5.000ms p99=5.000ms max=5.000ms";
  has "certify durations: n=1 p50=0.500ms p90=0.500ms p99=0.500ms max=0.500ms";
  has "retransmit/simnet.engine attr totals: src=3";
  Alcotest.(check bool) "no retransmit durations" false
    (List.exists
       (String.starts_with ~prefix:"retransmit durations")
       lines)

(* ---- the revised solver's span ---- *)

(* One [Revised.solve] emits one [lp.revised] span; a problem its
   validation rejects raises the exact message and emits none. *)
let test_revised_span () =
  let sink = Obs.Trace.create () in
  Obs.Trace.install (Some sink);
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~obj:3. "x" and y = Lp.Model.add_var m ~obj:5. "y" in
  Lp.Model.add_le m [ (1., x) ] 4.;
  Lp.Model.add_le m [ (3., x); (2., y) ] 18.;
  let prob = Lp.Model.to_problem m in
  let spans () =
    List.length
      (List.filter (fun e -> e.Obs.Trace.name = "lp.revised") (Obs.Trace.events sink))
  in
  ignore (Lp.Revised.solve prob);
  Alcotest.(check int) "one span per solve" 1 (spans ());
  (match Lp.Revised.solve { prob with Lp.Problem.rhs = [| 4.; Float.nan |] } with
  | _ -> Alcotest.fail "NaN rhs accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "message" "Problem: row 1 has non-finite rhs nan" msg);
  Alcotest.(check int) "a rejected problem emits no span" 1 (spans ())

(* ---- end to end: simnet trace vs engine ledger ---- *)

let test_simnet_roundtrip () =
  let sink = Obs.Trace.create () in
  Obs.Trace.install (Some sink);
  let n = 20 and k = 4 in
  let s =
    Experiments.Setup.uniform_gaussian ~seed:7 ~n ~k ~n_samples:4 ~n_test:3 ()
  in
  let plan =
    Prospector.Plan.make s.Experiments.Setup.topo
      (Array.mapi
         (fun i size ->
           if i = s.Experiments.Setup.topo.Sensor.Topology.root then 0
           else Int.min size k)
         s.Experiments.Setup.topo.Sensor.Topology.subtree_size)
  in
  let fault = Simnet.Fault.bernoulli ~n ~drop:0.15 in
  let rng = Rng.create 99 in
  let engine_mj, engine_retrans =
    Array.fold_left
      (fun (mj, rt) readings ->
        let r =
          Prospector.Simnet_exec.collect s.Experiments.Setup.topo
            s.Experiments.Setup.mica ~fault:(fault, rng) plan ~k ~readings
        in
        ( mj +. r.Prospector.Simnet_exec.total_mj,
          rt + r.Prospector.Simnet_exec.retransmissions ))
      (0., 0) s.Experiments.Setup.test_epochs
  in
  (* Round-trip the whole trace through the JSONL exporter before reading
     the epoch spans back out. *)
  let path = Filename.temp_file "obs_simnet" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.to_file path (Obs.Trace.events sink);
      match Obs.Trace.read_jsonl path with
      | Error msg -> Alcotest.failf "read_jsonl: %s" msg
      | Ok events ->
          let epochs =
            List.filter (fun e -> e.Obs.Trace.kind = Obs.Trace.Epoch) events
          in
          Alcotest.(check int) "one epoch span per collect" 3
            (List.length epochs);
          let num key e =
            Option.value ~default:0. (Obs.Trace.number e key)
          in
          let total key =
            List.fold_left (fun acc e -> acc +. num key e) 0. epochs
          in
          Alcotest.(check (float 1e-6))
            "trace energy equals the engine ledger" engine_mj
            (total "energy_mj");
          Alcotest.(check (float 0.))
            "trace retransmissions match" (float_of_int engine_retrans)
            (total "retransmissions"))

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "emit requires a sink" `Quick
            (with_clean test_emit_requires_sink);
          Alcotest.test_case "jsonl round trip" `Quick
            (with_clean test_jsonl_roundtrip);
          Alcotest.test_case "csv export" `Quick (with_clean test_csv_export);
          Alcotest.test_case "missing file is an error" `Quick
            (with_clean test_missing_file_is_error);
        ] );
      ( "report",
        [
          Alcotest.test_case "rows, attr sums and exact percentiles" `Quick
            test_report;
        ] );
      ( "lp",
        [
          Alcotest.test_case "one lp.revised span per solve" `Quick
            (with_clean test_revised_span);
        ] );
      ( "simnet",
        [
          Alcotest.test_case "trace agrees with engine ledger" `Quick
            (with_clean test_simnet_roundtrip);
        ] );
    ]
