type t = {
  n : int;
  drop_prob : float array;  (* per edge, indexed by the child endpoint *)
  burst_mean : float;  (* 0. disables burst extension *)
  crashes : (int * float * float) list;
  detour : Sensor.Failure.t option;
}

let check_prob context p =
  if Float.is_nan p || p < 0. || p > 1. then
    invalid_arg (context ^ ": drop probability out of [0, 1]")

let of_probs probs =
  Array.iter (check_prob "Fault.of_probs") probs;
  {
    n = Array.length probs;
    drop_prob = Array.copy probs;
    burst_mean = 0.;
    crashes = [];
    detour = None;
  }

let none ~n = of_probs (Array.make n 0.)

let bernoulli ~n ~drop =
  check_prob "Fault.bernoulli" drop;
  of_probs (Array.make n drop)

let of_failure { Sensor.Failure.fail_prob; reroute_factor } =
  let n = Array.length fail_prob in
  if Array.length reroute_factor <> n then
    invalid_arg "Fault.of_failure: length mismatch";
  Array.iter
    (fun p ->
      if Float.is_nan p || p < 0. || p > 1. then
        invalid_arg "Fault.of_failure: failure probability out of [0, 1]")
    fail_prob;
  Array.iter
    (fun r ->
      if not (r >= 1.) then
        invalid_arg "Fault.of_failure: reroute factor below 1")
    reroute_factor;
  {
    (none ~n) with
    detour =
      Some
        {
          Sensor.Failure.fail_prob = Array.copy fail_prob;
          reroute_factor = Array.copy reroute_factor;
        };
  }

let with_burst t ~mean_length =
  if not (mean_length > 0.) then
    invalid_arg "Fault.with_burst: mean_length must be positive";
  { t with burst_mean = mean_length }

let with_crashes t schedule =
  List.iter
    (fun (node, down_at, up_at) ->
      if node < 0 || node >= t.n then
        invalid_arg "Fault.with_crashes: node out of range";
      if Float.is_nan down_at || Float.is_nan up_at || down_at < 0.
         || up_at < down_at
      then invalid_arg "Fault.with_crashes: bad outage interval")
    schedule;
  { t with crashes = schedule @ t.crashes }

let n t = t.n

let node_up t ~node ~at =
  List.for_all
    (fun (m, down_at, up_at) -> m <> node || at < down_at || at >= up_at)
    t.crashes

type state = { config : t; rng : Rng.t; burst_until : float array }

let start config rng =
  { config; rng; burst_until = Array.make config.n neg_infinity }

let config s = s.config

let drops_frame s ~edge ~at =
  if at < s.burst_until.(edge) then true
  else
    let p = s.config.drop_prob.(edge) in
    p > 0.
    && Rng.float s.rng 1. < p
    &&
    (if s.config.burst_mean > 0. then
       s.burst_until.(edge) <-
         at +. Rng.exponential s.rng ~rate:(1. /. s.config.burst_mean);
     true)

let detour s ~edge =
  match s.config.detour with
  | None -> None
  | Some f ->
      if Rng.float s.rng 1. < f.Sensor.Failure.fail_prob.(edge) then
        Some f.Sensor.Failure.reroute_factor.(edge)
      else None
