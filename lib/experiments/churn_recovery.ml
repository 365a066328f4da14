let run ?(quick = false) ~seed () =
  let n = if quick then 25 else 40 in
  let k = if quick then 5 else 8 in
  let m = if quick then 80 else 160 in
  (* The Setup.lp_instance family, built inline because the campaign
     below draws fresh epochs from the field. *)
  let rng = Rng.create (seed * 104729) in
  let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
  let range = Sensor.Topology.min_connecting_range layout *. 1.25 in
  let topo = Sensor.Topology.build layout ~range in
  let mica = Sensor.Mica2.default in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:20. ~mean_hi:30. ~sigma_lo:1.
      ~sigma_hi:4.
  in
  let samples = Sampling.Sample_set.draw rng field ~k ~count:m in
  let anchor =
    Prospector.Plan.expected_collection_mj topo cost
      (Prospector.Proof_exec.min_bandwidth_plan topo)
  in
  let budget = 0.7 *. anchor in
  let first = Prospector.Lp_lf.plan topo cost samples ~budget ~k in
  let initial = first.Prospector.Lp_lf.plan in
  let full_install = Prospector.Plan.install_mj topo mica initial in
  let root = topo.Sensor.Topology.root in
  let by_subtree_desc a b =
    let sa = topo.Sensor.Topology.subtree_size.(a)
    and sb = topo.Sensor.Topology.subtree_size.(b) in
    if sa <> sb then Int.compare sb sa
    else Int.compare a b (* earlier id first on ties *)
  in
  let victims =
    Prospector.Plan.participants topo initial
    |> List.filter (fun i -> i <> root)
    |> List.sort by_subtree_desc
    |> List.filteri (fun i _ -> i < if quick then 4 else 8)
  in
  let rows, refused =
    List.fold_left
      (fun (rows, refused) v ->
        match
          Prospector.Repair.surgery ?warm_start:first.Prospector.Lp_lf.basis
            ~delta:1e-4 topo cost mica samples ~current:initial ~dead:[ v ] ~k
            ~budget
        with
        | Prospector.Repair.Repaired r ->
            let row =
              [
                float_of_int v;
                float_of_int topo.Sensor.Topology.subtree_size.(v);
                r.Prospector.Repair.delta_install_mj;
                Prospector.Plan.install_mj topo mica r.Prospector.Repair.plan;
                float_of_int (List.length r.Prospector.Repair.changed);
                100.
                *. r.Prospector.Repair.guarantee
                     .Prospector.Guarantee.certified_lower;
              ]
            in
            (row :: rows, refused)
        | _ ->
            let note = Printf.sprintf "victim %d: repair refused (excluded)" in
            (rows, note v :: refused))
      ([], []) victims
  in
  (* One controller campaign: crash at epoch 2, restart at epoch 6, probe
     sweep alongside the installed plan as in the chaos harness. *)
  let epochs = 10 and down_epoch = 2 and up_epoch = 6 in
  let victim = List.hd victims in
  let ctrl =
    Prospector.Repair.create ~confirm_after:2 ~clear_after:2 ~delta:1e-4 topo
      cost mica ~initial ~k ~budget ()
  in
  let probe =
    Prospector.Plan.make topo
      (Array.mapi
         (fun i size -> if i = root then 0 else Int.min size k)
         topo.Sensor.Topology.subtree_size)
  in
  let erng = Rng.create ((seed * 131) + 17) in
  let repaired_at = ref [] in
  for e = 0 to epochs - 1 do
    let base = Simnet.Fault.none ~n in
    let fault =
      if e >= down_epoch && e < up_epoch then
        Simnet.Fault.with_crashes base [ (victim, 0., infinity) ]
      else base
    in
    let readings = field.Sampling.Field.draw erng in
    let collect plan salt =
      Prospector.Simnet_exec.collect topo mica
        ~fault:(fault, Rng.create ((seed * 37) + (2 * e) + salt))
        plan ~k ~readings
    in
    let run = collect (Prospector.Repair.plan ctrl) 0 in
    let sweep = collect probe 1 in
    let dark =
      List.sort_uniq Int.compare
        (run.Prospector.Simnet_exec.dark @ sweep.Prospector.Simnet_exec.dark)
    in
    match Prospector.Repair.observe ctrl samples ~dark with
    | Prospector.Repair.Repaired _ -> repaired_at := e :: !repaired_at
    | _ -> ()
  done;
  let repaired_at = List.rev !repaired_at in
  let detection =
    match repaired_at with
    | e :: _ -> float_of_int (e - down_epoch)
    | [] -> -1. (* never: the victim participates, so a repair lands *)
  in
  let repairs = Prospector.Repair.repairs ctrl in
  [
    Series.make ~title:"Plan surgery per dead subtree vs full re-install"
      ~columns:
        [ "victim"; "subtree"; "delta_mJ"; "full_mJ"; "changed"; "floor_%" ]
      ~notes:
        ([
           Printf.sprintf
             "n=%d, k=%d, %d samples; budget %.1f mJ (0.7x full collection)" n
             k m budget;
           "delta_mJ = subplans unicast to the changed nodes only;";
           "full_mJ = the repaired plan re-installed everywhere";
         ]
        @ List.rev refused)
      (List.rev rows);
    Series.make ~title:"Crash-restart campaign: recovery energy"
      ~columns:[ "repairs"; "detect_ep"; "recovery_mJ"; "full_mJ" ]
      ~notes:
        [
          Printf.sprintf
            "victim %d down for epochs %d-%d of %d; repairs at epochs %s"
            victim down_epoch (up_epoch - 1) epochs
            (String.concat "," (List.map string_of_int repaired_at));
          Printf.sprintf
            "full_mJ = repairs x the initial plan's full install (%.3f mJ)"
            full_install;
        ]
      [
        [
          float_of_int repairs;
          detection;
          Prospector.Repair.repair_energy_mj ctrl;
          float_of_int repairs *. full_install;
        ];
      ];
  ]
