type t = { fail_prob : float array; reroute_factor : float array }

let uniform rng ~n ~max_prob ~max_factor =
  if max_prob < 0. || max_prob > 1. then
    invalid_arg "Failure.uniform: max_prob out of range";
  if max_factor < 1. then invalid_arg "Failure.uniform: max_factor < 1";
  {
    fail_prob = Array.init n (fun _ -> Rng.float rng max_prob);
    reroute_factor = Array.init n (fun _ -> Rng.uniform rng ~lo:1. ~hi:max_factor);
  }

let expected_multiplier t i =
  1. +. (t.fail_prob.(i) *. (t.reroute_factor.(i) -. 1.))
