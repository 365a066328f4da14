(* The workload table and the run's output. *)

let table =
  [
    ("plan-cold", Plan_cold.run);
    ("serve-mix", Serve_mix.run);
    ("deploy-churn", Deploy_churn.run);
  ]

let find name = List.assoc_opt name table
let out_dir = Filename.concat "perfbench" "_out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let num v = Obs.Json.Num v

let metrics_json ms =
  Obs.Json.Obj
    (List.map
       (fun (x : Harness.metric) ->
         (x.name, Obs.Json.Obj [ ("value", num x.value); ("unit", Obs.Json.Str x.unit_) ]))
       ms)

(* The text a run prints: one line per metric, the run record, and last
   the result object. *)
let report ~workload (cfg : Harness.config) (r : Harness.result) =
  let a = Span.analyse r.spans in
  let metrics =
    if cfg.trace then Layers.complete (r.per_layer @ Layers.trace_metrics a) else r.end_to_end
  in
  let c = r.checks in
  let failures = List.rev c.failures in
  let failed_frac = float_of_int c.failed /. float_of_int (Int.max 1 c.attempted) in
  let record =
    Obs.Json.Obj
      ([
         ("schema", Obs.Json.Str "perfbench-run/1");
         ("workload", Obs.Json.Str workload);
         ("seed", num (float_of_int cfg.seed));
         ("trace", Obs.Json.Bool cfg.trace);
         ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
         ("ocaml", Obs.Json.Str Sys.ocaml_version);
         ("attempted", num (float_of_int c.attempted));
         ("failed", num (float_of_int c.failed));
         ("failed_frac", num failed_frac);
         ("failures", Obs.Json.List (List.map (fun s -> Obs.Json.Str s) failures));
         ("counts", Obs.Json.Obj (List.map (fun (k, v) -> (k, num v)) r.counts));
       ]
      @ r.record
      @
      if cfg.trace then
        [
          ("trace_requests", num (float_of_int a.Span.requests));
          ("trace_requests_below_90pct", num (float_of_int a.Span.below_90));
          ( "trace_note",
            Obs.Json.Str
              "lp.revised.solve_ms includes the validation Revised.solve repeats \
               internally; per-layer rows of a layer a workload does not touch are 0" );
        ]
      else [])
  in
  let with_metrics =
    match record with
    | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ [ ("metrics", metrics_json metrics) ])
    | j -> j
  in
  let stem = Printf.sprintf "%s-seed%d-trace%d" workload cfg.seed (Bool.to_int cfg.trace) in
  (try
     mkdir_p out_dir;
     let oc = open_out (Filename.concat out_dir (stem ^ ".json")) in
     output_string oc (Obs.Json.to_string_pretty with_metrics);
     close_out oc;
     if cfg.trace then Span.write r.spans (Filename.concat out_dir (stem ^ ".spans.jsonl"))
   with Sys_error e -> prerr_endline ("perfbench: run record not written: " ^ e));
  let b = Buffer.create 4096 in
  List.iter
    (fun (x : Harness.metric) ->
      Buffer.add_string b (Printf.sprintf "%-36s %16.6f %s\n" x.name x.value x.unit_))
    metrics;
  Buffer.add_string b
    (Printf.sprintf "failed_frac %g (%d of %d checks)\n" failed_frac c.failed c.attempted);
  List.iter (fun f -> Buffer.add_string b ("failed check: " ^ f ^ "\n")) failures;
  Buffer.add_string b (Obs.Json.to_string record);
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (c.failed = 0));
            ("attempted", num (float_of_int c.attempted));
            ("failed", num (float_of_int c.failed));
            ("metrics", metrics_json metrics);
          ]));
  Buffer.add_char b '\n';
  Buffer.contents b
