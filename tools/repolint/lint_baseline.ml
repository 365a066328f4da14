(* Line-keyed acceptance list for legacy findings.  Each non-comment line
   is a finding key as printed by [Finding.baseline_key]:

       R2 lib/lp/lu.ml:309

   A finding whose key appears here is reported but does not fail the
   run.  Entries that no longer match anything are reported as stale so
   the file shrinks instead of rotting. *)

type t = string list (* keys, in file order *)

let empty = []

let parse_string s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.equal line "" || String.length line > 0 && line.[0] = '#'
         then None
         else Some line)

let load file =
  if Sys.file_exists file then begin
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> parse_string (really_input_string ic (in_channel_length ic)))
  end
  else empty

let mem t finding =
  let key = Finding.baseline_key finding in
  List.exists (String.equal key) t

(* Entries matching no current finding. *)
let stale t findings =
  let keys = List.map Finding.baseline_key findings in
  List.filter (fun e -> not (List.exists (String.equal e) keys)) t

(* Deterministic regeneration (make lint-baseline): one key per current
   finding, sorted and deduplicated, under a header explaining how the
   file is maintained.  Writing an empty baseline produces just the
   header, which is the steady state this repo aims for. *)
let write file findings =
  let keys =
    List.map Finding.baseline_key findings |> List.sort_uniq String.compare
  in
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        "# repolint baseline: accepted legacy findings, one key per line.\n\
         # Regenerate with `make lint-baseline`; stale entries fail CI \
         (exit 3).\n";
      List.iter (fun k -> output_string oc (k ^ "\n")) keys)
