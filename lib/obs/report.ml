(* Per-run aggregation of a trace: one row per (kind, name) with counts,
   wall-clock totals and the sums of every numeric attribute, plus each
   kind's sorted span durations so its percentiles are exact. *)

type row = {
  kind : Trace.kind;
  name : string;
  count : int;
  total_dur_s : float;
  max_dur_s : float;
  attr_sums : (string * float) list; (* numeric attrs only, summed *)
}

type t = { rows : row list; durations : (Trace.kind * float array) list }

let of_events evs =
  let tbl : (Trace.kind * string, row) Hashtbl.t = Hashtbl.create 16 in
  let durs : (Trace.kind, float list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      let key = (e.Trace.kind, e.Trace.name) in
      let row =
        match Hashtbl.find_opt tbl key with
        | Some r -> r
        | None ->
            {
              kind = e.Trace.kind;
              name = e.Trace.name;
              count = 0;
              total_dur_s = 0.;
              max_dur_s = 0.;
              attr_sums = [];
            }
      in
      let attr_sums =
        List.fold_left
          (fun sums (k, _) ->
            match Trace.number e k with
            | None -> sums
            | Some x ->
                let prev = Option.value ~default:0. (List.assoc_opt k sums) in
                (k, prev +. x) :: List.remove_assoc k sums)
          row.attr_sums e.Trace.attrs
      in
      Hashtbl.replace tbl key
        {
          row with
          count = row.count + 1;
          total_dur_s = row.total_dur_s +. e.Trace.dur_s;
          max_dur_s = Float.max row.max_dur_s e.Trace.dur_s;
          attr_sums;
        };
      (* Point events (dur_s = 0) carry no latency. *)
      if e.Trace.dur_s > 0. then
        Hashtbl.replace durs e.Trace.kind
          (e.Trace.dur_s
          :: Option.value ~default:[] (Hashtbl.find_opt durs e.Trace.kind)))
    evs;
  (* Canonical order everywhere downstream (pp, JSONL/CSV exporters): rows
     by (kind, name), attr totals by key, durations by kind — never
     hash-table order. *)
  let rows =
    Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
    |> List.sort (fun a b ->
           match Trace.compare_kind a.kind b.kind with
           | 0 -> String.compare a.name b.name
           | c -> c)
    |> List.map (fun r ->
           {
             r with
             attr_sums =
               List.sort
                 (fun (a, _) (b, _) -> String.compare a b)
                 r.attr_sums;
           })
  in
  let durations =
    Hashtbl.fold
      (fun k ds acc ->
        let a = Array.of_list ds in
        Array.sort Float.compare a;
        (k, a) :: acc)
      durs []
    |> List.sort (fun (a, _) (b, _) -> Trace.compare_kind a b)
  in
  { rows; durations }

let rows t = t.rows

(* Nearest-rank percentile of a sorted, non-empty array: the smallest
   observed value with at least [p]% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(Int.max 0 ((((p * n) + 99) / 100) - 1))

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%-10s %-24s %8s %12s %12s@," "kind" "name" "count"
    "total_ms" "max_ms";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %-24s %8d %12.3f %12.3f@,"
        (Trace.kind_to_string r.kind)
        r.name r.count
        (1000. *. r.total_dur_s)
        (1000. *. r.max_dur_s))
    t.rows;
  List.iter
    (fun (k, d) ->
      let n = Array.length d in
      Format.fprintf ppf
        "%s durations: n=%d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms@,"
        (Trace.kind_to_string k) n
        (1000. *. percentile d 50)
        (1000. *. percentile d 90)
        (1000. *. percentile d 99)
        (1000. *. d.(n - 1)))
    t.durations;
  List.iter
    (fun r ->
      if r.attr_sums <> [] then begin
        Format.fprintf ppf "%s/%s attr totals:"
          (Trace.kind_to_string r.kind)
          r.name;
        List.iter
          (fun (k, v) -> Format.fprintf ppf " %s=%s" k (Json.number_to_string v))
          r.attr_sums;
        Format.fprintf ppf "@,"
      end)
    t.rows;
  Format.fprintf ppf "@]"
