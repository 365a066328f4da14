(* Pretty-print an exported telemetry trace (JSON-lines, as written by
   Obs.Trace.to_file): one aggregate row per (kind, name) with counts,
   wall-clock totals, summed attributes and per-kind latency
   percentiles.

   usage: obs_report TRACE.jsonl *)

let () =
  match Array.to_list Sys.argv with
  | [ _; path ] -> (
      match Obs.Trace.read_jsonl path with
      | Error msg ->
          (* I/O errors already name the file; parse errors do not. *)
          if String.starts_with ~prefix:path msg then
            Printf.eprintf "obs_report: %s\n" msg
          else Printf.eprintf "obs_report: %s: %s\n" path msg;
          exit 2
      | Ok events ->
          Printf.printf "%s: %d events\n" path (List.length events);
          Format.printf "%a@." Obs.Report.pp (Obs.Report.of_events events))
  | _ ->
      prerr_endline "usage: obs_report TRACE.jsonl";
      exit 2
