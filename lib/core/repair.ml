(* Self-healing execution: churn detection with hysteresis, LP plan
   surgery masked to the survivors, and degraded re-certification.

   Surgery deliberately re-solves the *same* LP shape as the undamaged
   instance — dead nodes keep their variables, only their activation
   upper bound drops to 0 (see Lp_lf ?alive) — so the warm-start basis
   from the previous solve stays applicable and a repair is a perturbed
   re-solve, not a cold one.  Whether a token actually fits is decided by
   the LP layer's one shape predicate (Lp.Model.basis_compatible), applied
   inside Robust_plan.solve on the way to the solver. *)

module Health = struct
  type t = {
    confirm_after : int;
    clear_after : int;
    dark_streak : int array;
    alive_streak : int array;
    confirmed : bool array;
    mutable epochs : int;
  }

  let create ?(confirm_after = 2) ?(clear_after = 2) ~n () =
    if confirm_after < 1 then
      invalid_arg "Repair.Health.create: confirm_after must be positive";
    if clear_after < 1 then
      invalid_arg "Repair.Health.create: clear_after must be positive";
    if n < 1 then invalid_arg "Repair.Health.create: n must be positive";
    {
      confirm_after;
      clear_after;
      dark_streak = Array.make n 0;
      alive_streak = Array.make n 0;
      confirmed = Array.make n false;
      epochs = 0;
    }

  let observe ?probed t ~dark =
    let n = Array.length t.confirmed in
    let dark_now = Array.make n false in
    List.iter
      (fun i ->
        if i < 0 || i >= n then
          invalid_arg "Repair.Health.observe: node out of range";
        dark_now.(i) <- true)
      dark;
    (* A node that was neither probed nor reported dark yields no
       evidence this epoch: its streaks freeze.  Without this an epoch
       that simply skipped a confirmed-dead subtree (the repaired plan
       no longer routes through it) would read as "alive" and clear the
       confirmation, oscillating repair and un-repair forever. *)
    let probed_now =
      match probed with
      | None -> fun _ -> true
      | Some l ->
          let a = Array.make n false in
          List.iter
            (fun i ->
              if i < 0 || i >= n then
                invalid_arg "Repair.Health.observe: probed node out of range";
              a.(i) <- true)
            l;
          fun i -> a.(i)
    in
    for i = 0 to n - 1 do
      if dark_now.(i) then begin
        t.dark_streak.(i) <- t.dark_streak.(i) + 1;
        t.alive_streak.(i) <- 0;
        if t.dark_streak.(i) >= t.confirm_after then t.confirmed.(i) <- true
      end
      else if probed_now i then begin
        t.alive_streak.(i) <- t.alive_streak.(i) + 1;
        t.dark_streak.(i) <- 0;
        if t.alive_streak.(i) >= t.clear_after then t.confirmed.(i) <- false
      end
    done;
    t.epochs <- t.epochs + 1

  let confirmed_dead t =
    let acc = ref [] in
    for i = Array.length t.confirmed - 1 downto 0 do
      if t.confirmed.(i) then acc := i :: !acc
    done;
    !acc

  let is_confirmed t i = t.confirmed.(i)

  let dark_streak t i = t.dark_streak.(i)

  let epochs t = t.epochs
end

type repaired = {
  plan : Plan.t;
  guarantee : Guarantee.t;
  provenance : Robust_plan.provenance;
  dropped : int list;
  changed : int list;
  delta_install_mj : float;
  repair_s : float;
  basis : Lp.Model.basis option;
}

type refusal =
  | Floor_below_threshold of { floor : float; threshold : float }
  | Uncertified

type outcome =
  | Unnecessary
  | Repaired of repaired
  | Refused of { reason : refusal; attempt : repaired option }

(* A dead node takes its whole subtree with it: nothing below can reach
   the root.  Surgery reasons about that closure throughout. *)
let closure topo dead =
  List.concat_map (fun i -> Sensor.Topology.descendants topo i) dead
  |> List.sort_uniq Int.compare

let emit_span ~t0 ~dead ~outcome_str ~dropped ~changed ~floor ~delta_mj =
  if Obs.Trace.active () then
    Obs.Trace.emit Obs.Trace.Repair ~name:"repair.surgery" ~start_s:t0
      ~dur_s:(Obs.Trace.now () -. t0)
      [
        ("outcome", Obs.Trace.Str outcome_str);
        ("dead", Obs.Trace.Int (List.length dead));
        ("dropped", Obs.Trace.Int dropped);
        ("changed", Obs.Trace.Int changed);
        ("floor", Obs.Trace.Float floor);
        ("delta_install_mj", Obs.Trace.Float delta_mj);
      ]

let surgery ?warm_start ?max_lp_iterations ?lp_deadline ?(delta = 1e-6)
    ?(min_floor = 0.) ?(assumed_dead = []) topo cost mica samples ~current
    ~dead ~k ~budget =
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  if List.exists (fun i -> i = root) dead then
    invalid_arg "Repair.surgery: the root cannot be dead";
  let now_closure = closure topo dead in
  let prev_closure = closure topo assumed_dead in
  let in_list x l = List.exists (fun y -> Int.equal x y) l in
  let recovered = List.filter (fun i -> not (in_list i now_closure)) prev_closure in
  let newly = List.filter (fun i -> not (in_list i prev_closure)) now_closure in
  (* Surgery is warranted exactly when the situation the installed plan
     was built for changed in a way that matters: a node it relied on
     went dark, or capacity it was denied came back. *)
  let affects = recovered <> [] || List.exists (fun i -> Plan.bandwidth current i > 0) newly in
  if not affects then Unnecessary
  else begin
    let t0 = Obs.Trace.now () in
    let alive = Array.make n true in
    List.iter (fun i -> alive.(i) <- false) now_closure;
    (* Independence split, as in Robust_plan.plan_with_guarantee: plan on
       the first half, certify the repaired plan on the disjoint second
       half.  Windows too short to split reuse the full window and the
       bound carries the documented bias. *)
    let m = Sampling.Sample_set.n_samples samples in
    let plan_w, cert_w =
      if m >= 4 then
        ( Sampling.Sample_set.slice samples ~offset:0 ~count:(m / 2),
          Sampling.Sample_set.slice samples ~offset:(m / 2)
            ~count:(m - (m / 2)) )
      else (samples, samples)
    in
    let r =
      Lp_lf.plan ~alive ?warm_start ?max_lp_iterations ?lp_deadline topo cost
        plan_w ~budget ~k
    in
    if r.Lp_lf.provenance = Robust_plan.Fell_back_greedy then begin
      emit_span ~t0 ~dead ~outcome_str:"refused_uncertified" ~dropped:0
        ~changed:0 ~floor:0. ~delta_mj:0.;
      Refused { reason = Uncertified; attempt = None }
    end
    else begin
      let repaired_plan = r.Lp_lf.plan in
      (* The degraded bound: computed on the survivors' answers against
         the full truth, so excluded subtrees honestly depress the
         empirical accuracy instead of being quietly forgotten. *)
      let g =
        Guarantee.compute ~delta ?report:r.Lp_lf.certify
          ~objective:r.Lp_lf.lp_objective topo cost repaired_plan ~k cert_w
      in
      let dropped =
        List.filter (fun i -> Plan.bandwidth current i > 0) now_closure
      in
      let changed = ref [] in
      for i = n - 1 downto 0 do
        if Plan.bandwidth current i <> Plan.bandwidth repaired_plan i then
          changed := i :: !changed
      done;
      let changed = !changed in
      (* Install covers only the delta: one subplan unicast per live
         changed node (a live node whose bandwidth drops to 0 still
         needs the stop message; dead ones are unreachable and free). *)
      let live_changed =
        List.filter (fun i -> alive.(i) && i <> root) changed
      in
      let delta_install_mj =
        float_of_int (List.length live_changed)
        *. Sensor.Mica2.plan_install_mj mica
      in
      let repair_s = Obs.Trace.now () -. t0 in
      let rep =
        {
          plan = repaired_plan;
          guarantee = g;
          provenance = r.Lp_lf.provenance;
          dropped;
          changed;
          delta_install_mj;
          repair_s;
          basis = r.Lp_lf.basis;
        }
      in
      if g.Guarantee.certified_lower < min_floor then begin
        emit_span ~t0 ~dead ~outcome_str:"refused_floor"
          ~dropped:(List.length dropped) ~changed:(List.length changed)
          ~floor:g.Guarantee.certified_lower ~delta_mj:0.;
        Refused
          {
            reason =
              Floor_below_threshold
                { floor = g.Guarantee.certified_lower; threshold = min_floor };
            attempt = Some rep;
          }
      end
      else begin
        emit_span ~t0 ~dead ~outcome_str:"repaired"
          ~dropped:(List.length dropped) ~changed:(List.length changed)
          ~floor:g.Guarantee.certified_lower ~delta_mj:delta_install_mj;
        Repaired rep
      end
    end
  end

type controller = {
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  mica : Sensor.Mica2.t;
  k : int;
  budget : float;
  delta : float;
  min_floor : float;
  c_health : Health.t;
  mutable c_plan : Plan.t;
  mutable c_guarantee : Guarantee.t option;
  mutable installed_dead : int list;
  mutable warm : Lp.Model.basis option;
  mutable c_repairs : int;
  mutable c_refusals : int;
  mutable c_repair_mj : float;
}

let create ?confirm_after ?clear_after ?(delta = 1e-6) ?(min_floor = 0.) topo
    cost mica ~initial ?guarantee ~k ~budget () =
  {
    topo;
    cost;
    mica;
    k;
    budget;
    delta;
    min_floor;
    c_health =
      Health.create ?confirm_after ?clear_after ~n:topo.Sensor.Topology.n ();
    c_plan = initial;
    c_guarantee = guarantee;
    installed_dead = [];
    warm = None;
    c_repairs = 0;
    c_refusals = 0;
    c_repair_mj = 0.;
  }

let observe ?probed c samples ~dark =
  Health.observe ?probed c.c_health ~dark;
  (* The root can be reported dark under extreme loss (a child gave up
     on its uplink), but a plan without the root is meaningless and
     surgery rejects it: with no root there is no query to degrade. *)
  let dead =
    List.filter
      (fun i -> i <> c.topo.Sensor.Topology.root)
      (Health.confirmed_dead c.c_health)
  in
  let outcome =
    surgery ?warm_start:c.warm ~delta:c.delta ~min_floor:c.min_floor
      ~assumed_dead:c.installed_dead c.topo c.cost c.mica samples
      ~current:c.c_plan ~dead ~k:c.k ~budget:c.budget
  in
  (match outcome with
  | Unnecessary -> ()
  | Repaired r ->
      c.c_plan <- r.plan;
      c.c_guarantee <- Some r.guarantee;
      c.installed_dead <- dead;
      (match r.basis with Some _ -> c.warm <- r.basis | None -> ());
      c.c_repairs <- c.c_repairs + 1;
      c.c_repair_mj <- c.c_repair_mj +. r.delta_install_mj
  | Refused _ ->
      (* The installed plan stays; the next epoch's observation will try
         again (the dead set may have shrunk, or the caller may lower the
         floor).  Refusals are counted so campaigns can assert on them. *)
      c.c_refusals <- c.c_refusals + 1);
  outcome

let plan c = c.c_plan

let guarantee c = c.c_guarantee

let health c = c.c_health

let dead c = c.installed_dead

let repairs c = c.c_repairs

let refusals c = c.c_refusals

let repair_energy_mj c = c.c_repair_mj
