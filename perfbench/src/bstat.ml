(* Order statistics over measured samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks (the same rule as Python's
   [statistics.quantiles(..., method="inclusive")]). *)
let quantile_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else if n = 1 then s.(0)
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = Int.min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let quantile a p = quantile_sorted (sorted a) p
let median a = quantile a 0.5

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

let mean_list l = mean (Array.of_list l)

(* Geometric mean of positive samples. *)
let geomean a =
  let n = Array.length a in
  if n = 0 then 0.
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0. a /. float_of_int n)

(* Percentiles tried for the tail, highest first. *)
let ladder = [ 99.9; 99.5; 99.; 95.; 90.; 75.; 50. ]

type tail = { pct : float; value : float; n : int; beyond : int }

(* The highest percentile of [ladder], at most [max_pct], with at least
   10 samples beyond it (falling back to the median for tiny sample sets).
   Each workload fixes [max_pct] to what its run length gives on the
   reference host, so a faster or slower build reports the same
   percentile. *)
let tail ~max_pct a =
  let s = sorted a in
  let n = Array.length s in
  let beyond p = int_of_float (float_of_int n *. (1. -. (p /. 100.))) in
  let pct =
    match List.find_opt (fun p -> p <= max_pct && beyond p >= 10) ladder with
    | Some p -> p
    | None -> 50.
  in
  { pct; value = quantile_sorted s (pct /. 100.); n; beyond = beyond pct }
