(* The benchmark program: one workload per invocation.

     main.exe --workload plan-cold|serve-mix|deploy-churn --seed N
              --seconds S --trace 0|1

   With [--trace 0] the result line carries the end-to-end metrics of an
   untraced run; with [--trace 1] the per-layer metrics of a traced run.
   The last line of standard output is the result object; the run record
   (seed, host, sample counts, tail percentile) is the line before it and
   is also written, with the spans of a traced run, under perfbench/_out. *)

open Perfbench_lib

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME plan-cold, serve-mix or deploy-churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  let cfg =
    {
      Harness.seed = !seed;
      stop = Harness.Seconds !seconds;
      trace = !trace = 1;
      quick = false;
    }
  in
  match Workloads.find !workload with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some run ->
      let r = run cfg in
      print_string (Workloads.report ~workload:!workload cfg r);
      exit 0
