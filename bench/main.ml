(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md for the experiment index), plus the
   LP solve-time measurements reported in "Other Results".

   Usage:
     dune exec bench/main.exe                 -- everything, full size
     dune exec bench/main.exe -- --quick      -- everything, small instances
     dune exec bench/main.exe -- fig3 fig5    -- selected experiments
     dune exec bench/main.exe -- --seed 7 fig4

   End-to-end wall-clock performance is measured by perfbench/ (see
   BENCHMARK.json), not here. *)

open Bechamel
open Toolkit

let seed = ref 20060403 (* ICDE 2006 *)
let quick = ref false
let csv_dir = ref None

let slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
      | _ -> '_')
    title

let dump_csv name series =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iteri
        (fun i s ->
          let path =
            Filename.concat dir
              (Printf.sprintf "%s_%d_%s.csv" name i
                 (slug s.Experiments.Series.title))
          in
          let oc = open_out path in
          output_string oc (Experiments.Series.to_csv s);
          close_out oc)
        series

let run_figures name runner =
  Format.printf "@.######## %s ########@." name;
  let t0 = Unix.gettimeofday () in
  let series = runner ?quick:(Some !quick) ~seed:!seed () in
  Experiments.Series.print_all Format.std_formatter series;
  dump_csv name series;
  Format.printf "(%s completed in %.1fs)@." name (Unix.gettimeofday () -. t0)

(* ---- LP solve-time micro-benchmarks ---- *)

let bechamel_table tests =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.) ~kde:None ~stabilize:false
      ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let print_row (name, ols) =
    match Analyze.OLS.estimates ols with
    | Some (est :: _) ->
        Format.printf "%-40s %10.2f ms/solve@." name (est /. 1e6)
    | Some [] | None -> Format.printf "%-40s (no estimate)@." name
  in
  List.iter print_row rows

let run_lp_timing () =
  Format.printf "@.######## LP solve times (Other Results) ########@.";
  let sizes =
    if !quick then [ (40, 10, 8) ] else [ (50, 15, 10); (100, 30, 20) ]
  in
  let tests =
    List.concat_map
      (fun (n, m, k) ->
        let { Experiments.Setup.topo; cost; samples; _ } =
          Experiments.Setup.lp_instance ~seed:!seed ~n ~n_samples:m ~k
        in
        let anchor =
          Prospector.Plan.expected_collection_mj topo cost
            (Prospector.Proof_exec.min_bandwidth_plan topo)
        in
        let budget = 1.2 *. anchor in
        let tag name = Printf.sprintf "%s n=%d samples=%d k=%d" name n m k in
        [
          Test.make ~name:(tag "greedy")
            (Staged.stage (fun () ->
                 ignore (Prospector.Greedy.plan topo cost samples ~budget)));
          Test.make ~name:(tag "lp-lf")
            (Staged.stage (fun () ->
                 ignore (Prospector.Lp_no_lf.plan topo cost samples ~budget)));
          Test.make ~name:(tag "lp+lf")
            (Staged.stage (fun () ->
                 ignore (Prospector.Lp_lf.plan topo cost samples ~budget ~k)));
        ])
      sizes
  in
  bechamel_table (Test.make_grouped ~name:"planners" tests);
  (* PROSPECTOR-PROOF is too slow for micro-benchmarking; report wall
     clock over a single solve, as the paper does for CPLEX. *)
  let n, m, k = if !quick then (25, 6, 5) else (40, 10, 8) in
  let { Experiments.Setup.topo; cost; samples; _ } =
    Experiments.Setup.lp_instance ~seed:!seed ~n ~n_samples:m ~k
  in
  let anchor =
    Prospector.Plan.expected_collection_mj topo cost
      (Prospector.Proof_exec.min_bandwidth_plan topo)
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Prospector.Lp_proof.plan topo cost samples ~budget:(1.5 *. anchor) ~k
  in
  Format.printf "%-40s %10.2f ms/solve (wall clock)@."
    (Printf.sprintf "lp-proof n=%d samples=%d k=%d" n m k)
    (1000. *. (Unix.gettimeofday () -. t0));
  match r.Prospector.Lp_proof.lp_stats with
  | Some s ->
      Format.printf "  (simplex: %d iterations, %d refactorizations)@."
        s.Lp.Revised.iterations s.Lp.Revised.refactorizations
  | None -> ()

let all_experiments =
  [
    ("table1", `Plain (fun () -> Experiments.Table1.run ()));
    ("fig3", `Fig Experiments.Fig3.run);
    ("fig4", `Fig Experiments.Fig4.run);
    ("fig5", `Fig Experiments.Fig5.run);
    ("fig7", `Fig Experiments.Fig7.run);
    ("fig8", `Fig Experiments.Fig8.run);
    ("fig9", `Fig Experiments.Fig9.run);
    ("samples", `Fig Experiments.Sample_size.run);
    ("failures", `Fig Experiments.Ablation_failures.run);
    ("loss", `Fig Experiments.Ablation_loss.run);
    ("drift", `Fig Experiments.Ablation_drift.run);
    ("rounding", `Fig Experiments.Ablation_rounding.run);
    ("generalized", `Fig Experiments.Generalized.run);
    ("lifetime", `Fig Experiments.Lifetime_exp.run);
    ("modelgen", `Fig Experiments.Model_sampling.run);
    ("lptime", `Plain run_lp_timing);
    ("guarantee", `Fig Experiments.Guarantee_curve.run);
    ("churn", `Fig Experiments.Churn_recovery.run);
  ]

let usage () =
  print_endline
    "usage: main.exe [--quick] [--seed N] [--csv DIR] [experiment...]";
  Printf.printf "experiments: %s\n"
    (String.concat " " (List.map fst all_experiments));
  exit 1

let () =
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s -> seed := s
        | None -> usage ());
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | name :: rest ->
        if List.mem_assoc name all_experiments then begin
          selected := name :: !selected;
          parse rest
        end
        else begin
          Printf.printf "unknown experiment: %s\n" name;
          usage ()
        end
  in
  parse (List.tl (Array.to_list Sys.argv));
  let to_run =
    match List.rev !selected with
    | [] -> List.map fst all_experiments
    | names -> names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc name all_experiments with
      | `Plain f -> f ()
      | `Fig runner -> run_figures name runner)
    to_run;
  Format.printf "@.All requested experiments completed in %.1fs.@."
    (Unix.gettimeofday () -. t0)
