type family = Hoeffding | Empirical_bernstein | Per_node_union

type t = {
  eps : float;
  delta : float;
  samples : int;
  k : int;
  empirical_accuracy : float;
  certified_lower : float;
  stat_eps : float;
  lp_eps : float;
  family : family;
  candidates : int;
  lp_certified : bool;
}

let family_rank = function
  | Hoeffding -> 0
  | Empirical_bernstein -> 1
  | Per_node_union -> 2

let compare_family a b = Int.compare (family_rank a) (family_rank b)

let family_to_string = function
  | Hoeffding -> "hoeffding"
  | Empirical_bernstein -> "empirical-bernstein"
  | Per_node_union -> "per-node-union"

let family_of_string = function
  | "hoeffding" -> Some Hoeffding
  | "empirical-bernstein" -> Some Empirical_bernstein
  | "per-node-union" -> Some Per_node_union
  | _ -> None

let check_delta ~who delta =
  if not (delta > 0. && delta < 1.) then
    invalid_arg (Printf.sprintf "Guarantee.%s: delta must be in (0, 1)" who)

let hoeffding_slack ~m ~delta =
  if m < 1 then invalid_arg "Guarantee.hoeffding_slack: m must be positive";
  check_delta ~who:"hoeffding_slack" delta;
  sqrt (log (1. /. delta) /. (2. *. float_of_int m))

let bernstein_slack ~m ~variance ~delta =
  if m < 1 then invalid_arg "Guarantee.bernstein_slack: m must be positive";
  if variance < 0. then
    invalid_arg "Guarantee.bernstein_slack: negative variance";
  check_delta ~who:"bernstein_slack" delta;
  if m < 2 then infinity
  else begin
    let l = log (2. /. delta) in
    sqrt (2. *. variance *. l /. float_of_int m)
    +. (7. *. l /. (3. *. float_of_int (m - 1)))
  end

let union_slack ~m ~candidates ~k ~delta =
  if candidates < 1 then
    invalid_arg "Guarantee.union_slack: candidates must be positive";
  if k < 1 then invalid_arg "Guarantee.union_slack: k must be positive";
  check_delta ~who:"union_slack" delta;
  float_of_int candidates /. float_of_int k
  *. hoeffding_slack ~m ~delta:(delta /. float_of_int candidates)

(* Convert the certified *scaled* duality gap back to objective units.
   Certify scales the gap by [1 + |primal| + |dual|]; the dual objective is
   not part of the report, but at a certified optimum it is within the
   unscaled gap of the primal, so with [g] the scaled gap and [p] the
   primal objective:

     unscaled <= g * (1 + |p| + |d|) <= g * (1 + 2|p|) + g * unscaled

   giving [unscaled <= g * (1 + 2|p|) / (1 - g)] for [g < 1].  Certified
   gaps sit near machine precision, so the denominator is benign; an
   uncertifiable gap >= 1 yields [infinity], which honestly voids the
   claim rather than understating it. *)
let gap_to_objective_units ~gap ~objective =
  if gap >= 1. then infinity
  else gap *. (1. +. (2. *. Float.abs objective)) /. (1. -. gap)

let compute ?(delta = 1e-6) ?report ?objective topo cost plan ~k samples =
  check_delta ~who:"compute" delta;
  if k < 1 then invalid_arg "Guarantee.compute: k must be positive";
  let m = Sampling.Sample_set.n_samples samples in
  let n = samples.Sampling.Sample_set.n in
  (* Useful answer size: a sample's true top k can hold at most n nodes. *)
  let k_eff = Int.min k n in
  let participants = Plan.participants topo plan in
  let hits = Array.make n 0 in
  let acc = Array.make m 0. in
  for j = 0 to m - 1 do
    let readings = samples.Sampling.Sample_set.values.(j) in
    let o = Exec.collect topo cost plan ~k ~readings in
    acc.(j) <- Exec.accuracy ~k ~readings o.Exec.returned;
    List.iter
      (fun (i, _) ->
        if samples.Sampling.Sample_set.is_one.(j).(i) then
          hits.(i) <- hits.(i) + 1)
      o.Exec.returned
  done;
  let a_hat = Sampling.Stats.mean acc in
  let a_var = Sampling.Stats.variance acc in
  let d3 = delta /. 3. in
  let eps_h = hoeffding_slack ~m ~delta:d3 in
  let eps_b = bernstein_slack ~m ~variance:a_var ~delta:d3 in
  let c = List.length participants in
  (* Per-node route: E[acc] = (1/k_eff) sum_i q_i, and only participants
     can be returned, so bounding each participant's q_i at level
     [d3 / c] and summing is a valid union bound.  Each node's slack is
     capped by its empirical rate (a probability cannot go below 0). *)
  let fm = float_of_int m in
  let eps_u =
    if c = 0 then eps_h
    else begin
      let dn = d3 /. float_of_int c in
      let total =
        List.fold_left
          (fun acc_slack i ->
            let q = float_of_int hits.(i) /. fm in
            if q <= 0. then acc_slack
            else begin
              let v =
                if m < 2 then infinity
                else q *. (1. -. q) *. fm /. float_of_int (m - 1)
              in
              acc_slack +. Float.min q (bernstein_slack ~m ~variance:v ~delta:dn)
            end)
          0. participants
      in
      total /. float_of_int k_eff
    end
  in
  let stat_eps, family =
    if eps_h <= eps_b && eps_h <= eps_u then (eps_h, Hoeffding)
    else if eps_b <= eps_u then (eps_b, Empirical_bernstein)
    else (eps_u, Per_node_union)
  in
  let lp_certified =
    match report with Some r -> r.Lp.Certify.certified | None -> false
  in
  let lp_eps =
    match (report, objective) with
    | Some r, Some obj when r.Lp.Certify.certified ->
        (* The LP objective counts covered ones over the window (at most
           k_eff per sample); dividing by [k_eff * m] lands the certified
           gap in the same units as the accuracy slack. *)
        gap_to_objective_units ~gap:r.Lp.Certify.duality_gap ~objective:obj
        /. (float_of_int k_eff *. fm)
    | _ -> 0.
  in
  let eps = stat_eps +. lp_eps in
  let certified_lower = Float.max 0. (a_hat -. eps) in
  let g =
    {
      eps;
      delta;
      samples = m;
      k;
      empirical_accuracy = a_hat;
      certified_lower;
      stat_eps;
      lp_eps;
      family;
      candidates = Int.max c 1;
      lp_certified;
    }
  in
  if Obs.Trace.active () then
    Obs.Trace.emit Obs.Trace.Guarantee ~name:"planner.guarantee"
      [
        ("eps", Obs.Trace.Float eps);
        ("delta", Obs.Trace.Float delta);
        ("certified_lower", Obs.Trace.Float certified_lower);
        ("empirical_accuracy", Obs.Trace.Float a_hat);
        ("family", Obs.Trace.Str (family_to_string family));
        ("samples", Obs.Trace.Int m);
        ("k", Obs.Trace.Int k);
        ("lp_certified", Obs.Trace.Bool lp_certified);
      ];
  g

let meets t ~eps ~delta = t.certified_lower >= 1. -. eps && t.delta <= delta

let holds_against t ~observed_accuracy = observed_accuracy >= t.certified_lower

let validate t =
  let check cond reason = if cond then Ok () else Error reason in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = check (t.delta > 0. && t.delta < 1.) "delta outside (0, 1)" in
  let* () = check (t.samples >= 1) "non-positive sample count" in
  let* () = check (t.k >= 1) "non-positive k" in
  let* () = check (t.candidates >= 1) "non-positive candidate count" in
  let* () =
    check
      (t.empirical_accuracy >= 0. && t.empirical_accuracy <= 1.)
      "empirical accuracy outside [0, 1]"
  in
  let* () = check (t.stat_eps >= 0.) "negative statistical slack" in
  let* () = check (t.lp_eps >= 0.) "negative LP slack" in
  let* () =
    check
      (Float.abs (t.eps -. (t.stat_eps +. t.lp_eps)) <= 1e-12 *. (1. +. t.eps))
      "eps does not equal stat_eps + lp_eps"
  in
  let* () =
    check
      (Float.abs (t.certified_lower -. Float.max 0. (t.empirical_accuracy -. t.eps))
      <= 1e-12)
      "certified_lower does not match max 0 (accuracy - eps)"
  in
  let* () =
    check
      (t.lp_certified || t.lp_eps = 0.)
      "LP slack claimed without a certified LP solution"
  in
  (* The statistical slack is a minimum that always includes the Hoeffding
     member, so it can never beat it. *)
  let hoeffding_floor = hoeffding_slack ~m:t.samples ~delta:(t.delta /. 3.) in
  check
    (t.stat_eps <= hoeffding_floor +. 1e-12)
    "statistical slack tighter than the Hoeffding member of its minimum"

let equal a b =
  Float.equal a.eps b.eps
  && Float.equal a.delta b.delta
  && Int.equal a.samples b.samples
  && Int.equal a.k b.k
  && Float.equal a.empirical_accuracy b.empirical_accuracy
  && Float.equal a.certified_lower b.certified_lower
  && Float.equal a.stat_eps b.stat_eps
  && Float.equal a.lp_eps b.lp_eps
  && compare_family a.family b.family = 0
  && Int.equal a.candidates b.candidates
  && Bool.equal a.lp_certified b.lp_certified

let schema = "guarantee/1"

let to_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str schema);
      ("eps", Obs.Json.Num t.eps);
      ("delta", Obs.Json.Num t.delta);
      ("samples", Obs.Json.Num (float_of_int t.samples));
      ("k", Obs.Json.Num (float_of_int t.k));
      ("empirical_accuracy", Obs.Json.Num t.empirical_accuracy);
      ("certified_lower", Obs.Json.Num t.certified_lower);
      ("stat_eps", Obs.Json.Num t.stat_eps);
      ("lp_eps", Obs.Json.Num t.lp_eps);
      ("family", Obs.Json.Str (family_to_string t.family));
      ("candidates", Obs.Json.Num (float_of_int t.candidates));
      ("lp_certified", Obs.Json.Bool t.lp_certified);
    ]

let of_json j =
  let ( let* ) o f = Option.bind o f in
  let num name = Option.bind (Obs.Json.member name j) Obs.Json.to_num in
  let* s = Option.bind (Obs.Json.member "schema" j) Obs.Json.to_str in
  if not (String.equal s schema) then None
  else
    let* eps = num "eps" in
    let* delta = num "delta" in
    let* samples = num "samples" in
    let* k = num "k" in
    let* empirical_accuracy = num "empirical_accuracy" in
    let* certified_lower = num "certified_lower" in
    let* stat_eps = num "stat_eps" in
    let* lp_eps = num "lp_eps" in
    let* family =
      Option.bind
        (Option.bind (Obs.Json.member "family" j) Obs.Json.to_str)
        family_of_string
    in
    let* candidates = num "candidates" in
    let* lp_certified =
      Option.bind (Obs.Json.member "lp_certified" j) Obs.Json.to_bool
    in
    Some
      {
        eps;
        delta;
        samples = int_of_float samples;
        k = int_of_float k;
        empirical_accuracy;
        certified_lower;
        stat_eps;
        lp_eps;
        family;
        candidates = int_of_float candidates;
        lp_certified;
      }

let pp ppf t =
  Format.fprintf ppf
    "@[<h>E[accuracy] >= %.4f (missed mass <= %.4f) w.p. >= %g over %d \
     samples; eps = %.4f (%s%s)@]"
    t.certified_lower (1. -. t.certified_lower) (1. -. t.delta) t.samples t.eps
    (family_to_string t.family)
    (if t.lp_certified then Format.sprintf " + %.2e LP gap" t.lp_eps else "")
