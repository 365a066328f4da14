type result = {
  plan : Plan.t;
  lp_objective : float;
  lp_stats : Lp.Revised.stats option;
  fractional : float array;
  budget_shadow_price : float;
  basis : Lp.Model.basis option;
  provenance : Robust_plan.provenance;
  certify : Lp.Certify.report option;
  guarantee : Guarantee.t option;
}

let check_alive topo alive =
  match alive with
  | None -> ()
  | Some a ->
      if Array.length a <> topo.Sensor.Topology.n then
        invalid_arg "Lp_lf.plan: alive mask length mismatch";
      if not a.(topo.Sensor.Topology.root) then
        invalid_arg "Lp_lf.plan: root cannot be dead"

let is_alive alive i =
  match alive with None -> true | Some a -> a.(i)

let build ?alive topo cost samples ~budget ~k =
  if budget < 0. then invalid_arg "Lp_lf.plan: negative budget";
  if k < 1 then invalid_arg "Lp_lf.plan: k must be positive";
  check_alive topo alive;
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  let ones = samples.Sampling.Sample_set.ones in
  let n_samples = Array.length ones in
  let model = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let z = Array.make n None and b = Array.make n None in
  for i = 0 to n - 1 do
    if i <> root then begin
      (* Dead nodes keep their variables — same model shape, so PR-1
         warm-start tokens from the undamaged solve still apply — but
         their edge can never activate: z's upper bound drops to 0, the
         activation row forces b = 0, y <= z forces coverage to 0 and
         z-monotonicity shuts every descendant's edge. *)
      let z_upper = if is_alive alive i then 1. else 0. in
      z.(i) <-
        Some (Lp.Model.add_var model ~upper:z_upper (Printf.sprintf "z%d" i));
      let cap =
        float_of_int (Int.min k topo.Sensor.Topology.subtree_size.(i))
      in
      b.(i) <-
        Some (Lp.Model.add_var model ~upper:cap (Printf.sprintf "b%d" i))
    end
  done;
  let getz i =
    match z.(i) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Lp_lf.plan: no z variable for node %d" i)
  and getb i =
    match b.(i) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Lp_lf.plan: no b variable for node %d" i)
  in
  (* y variables, one per (sample, non-root one). *)
  let y = Hashtbl.create (n_samples * k) in
  for j = 0 to n_samples - 1 do
    Array.iter
      (fun i ->
        if i <> root then
          Hashtbl.replace y (j, i)
            (Lp.Model.add_var model ~upper:1. ~obj:1.
               (Printf.sprintf "y%d_%d" j i)))
      ones.(j)
  done;
  (* Edge activation and monotonicity. *)
  for i = 0 to n - 1 do
    if i <> root then begin
      let cap =
        float_of_int (Int.min k topo.Sensor.Topology.subtree_size.(i))
      in
      Lp.Model.add_le model [ (1., getb i); (-.cap, getz i) ] 0.;
      let p = topo.Sensor.Topology.parent.(i) in
      if p <> root then
        Lp.Model.add_le model [ (1., getz i); (-1., getz p) ] 0.
    end
  done;
  (* y_{j,i} <= z_i on the node's own uplink.  Rows are added in sorted
     (sample, node) order so the LP's row layout — and therefore the
     solver's pivot trajectory — never depends on hash-table order. *)
  Hashtbl.fold (fun k yv acc -> (k, yv) :: acc) y []
  |> List.sort (fun (((j1 : int), (i1 : int)), _) ((j2, i2), _) ->
         match Int.compare j1 j2 with 0 -> Int.compare i1 i2 | c -> c)
  |> List.iter (fun ((_, i), yv) ->
         Lp.Model.add_le model [ (1., yv); (-1., getz i) ] 0.);
  (* Bandwidth rows: per (edge, sample), the covered ones below the edge
     cannot exceed its bandwidth.  Rows with no ones below are skipped. *)
  for i = 0 to n - 1 do
    if i <> root then begin
      let desc = Sensor.Topology.descendants topo i in
      for j = 0 to n_samples - 1 do
        let terms =
          List.filter_map
            (fun u -> Option.map (fun yv -> (1., yv)) (Hashtbl.find_opt y (j, u)))
            desc
        in
        if terms <> [] then
          Lp.Model.add_le model ((-1., getb i) :: terms) 0.
      done
    end
  done;
  (* Budget. *)
  let budget_terms = ref [] in
  for i = 0 to n - 1 do
    if i <> root then
      budget_terms :=
        (cost.Sensor.Cost.per_message.(i), getz i)
        :: (cost.Sensor.Cost.per_value.(i), getb i)
        :: !budget_terms
  done;
  Lp.Model.add_le model !budget_terms budget;
  (model, getb)

let lp_model ?alive topo cost samples ~budget ~k =
  fst (build ?alive topo cost samples ~budget ~k)

(* Emit one [Plan] span per planning decision, carrying where the plan
   came from and what the LP claimed for it. *)
let traced_plan ~topo ~budget ~k f =
  if not (Obs.Trace.active ()) then f ()
  else begin
    let t0 = Obs.Trace.now () in
    let r = f () in
    Obs.Trace.emit Obs.Trace.Plan ~name:"planner.lp_lf" ~start_s:t0
      ~dur_s:(Obs.Trace.now () -. t0)
      [
        ( "provenance",
          Obs.Trace.Str
            (Format.asprintf "%a" Robust_plan.pp_provenance r.provenance) );
        ("lp_objective", Obs.Trace.Float r.lp_objective);
        ("budget", Obs.Trace.Float budget);
        ("k", Obs.Trace.Int k);
        ("nodes", Obs.Trace.Int topo.Sensor.Topology.n);
      ];
    r
  end

let plan_plain ?alive ?warm_start ?max_lp_iterations ?lp_deadline topo cost
    samples ~budget ~k =
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  traced_plan ~topo ~budget ~k @@ fun () ->
  let model, getb = build ?alive topo cost samples ~budget ~k in
  match
    Robust_plan.solve ?warm_start ?max_iterations:max_lp_iterations
      ?deadline:lp_deadline model
  with
  | Error _ ->
      (* No certified LP solution: ship the greedy selection without local
         filtering.  Its objective is the covered-ones count the selection
         achieves on the samples (the same currency as the LP's). *)
      let colsum =
        (* The greedy fallback must honour the mask too: a dead node's
           column count drops to 0, which excludes it from selection. *)
        match alive with
        | None -> samples.Sampling.Sample_set.colsum
        | Some a ->
            Array.mapi
              (fun i c -> if a.(i) then c else 0)
              samples.Sampling.Sample_set.colsum
      in
      let chosen = Greedy.chosen_by_colsum topo cost ~colsum ~budget in
      let plan = Plan.of_chosen topo chosen in
      let lp_objective = ref 0. in
      for i = 0 to n - 1 do
        if chosen.(i) && i <> root then
          lp_objective := !lp_objective +. float_of_int colsum.(i)
      done;
      {
        plan;
        lp_objective = !lp_objective;
        lp_stats = None;
        fractional =
          Array.init n (fun i -> float_of_int (Plan.bandwidth plan i));
        budget_shadow_price = 0.;
        basis = None;
        provenance = Robust_plan.Fell_back_greedy;
        certify = None;
        guarantee = None;
      }
  | Ok r ->
  let sol = r.Robust_plan.solution in
  let fractional = Array.make n 0. in
  for i = 0 to n - 1 do
    if i <> root then fractional.(i) <- Lp.Model.value sol (getb i)
  done;
  (* The budget row is the last constraint added. *)
  let budget_shadow_price =
    match sol.Lp.Model.row_duals with
    | Some duals -> duals.(Array.length duals - 1)
    | None -> 0.
  in
  {
    plan = Plan.of_fractional topo fractional;
    lp_objective = sol.Lp.Model.objective;
    lp_stats = sol.Lp.Model.stats;
    fractional;
    budget_shadow_price;
    basis = sol.Lp.Model.basis;
    provenance = r.Robust_plan.provenance;
    certify = Some r.Robust_plan.report;
    guarantee = None;
  }

let plan ?alive ?warm_start ?max_lp_iterations ?lp_deadline ?guarantee topo
    cost samples ~budget ~k =
  match guarantee with
  | None ->
      plan_plain ?alive ?warm_start ?max_lp_iterations ?lp_deadline topo cost
        samples ~budget ~k
  | Some (eps, delta) ->
      (* Escalation rungs re-solve the same LP shape with a perturbed
         budget row: chain each rung's final basis into the next so the
         ladder rides the warm-start fast path. *)
      let warm = ref warm_start in
      let g =
        Robust_plan.plan_with_guarantee ~eps ~delta
          ~planner:(fun ~samples ~budget ->
            let r =
              plan_plain ?alive ?warm_start:!warm ?max_lp_iterations
                ?lp_deadline topo cost samples ~budget ~k
            in
            (match r.basis with Some _ -> warm := r.basis | None -> ());
            r)
          ~describe:(fun r -> (r.plan, r.certify, Some r.lp_objective))
          topo cost ~k samples ~budget
      in
      let chosen = g.Robust_plan.chosen in
      {
        chosen.Robust_plan.result with
        guarantee = Some chosen.Robust_plan.guarantee;
      }
