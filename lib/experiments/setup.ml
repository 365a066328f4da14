type t = {
  layout : Sensor.Placement.t;
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  mica : Sensor.Mica2.t;
  samples : Sampling.Sample_set.t;
  test_epochs : float array array;
  k : int;
}

let mica = Sensor.Mica2.default

let finish rng layout topo field ~k ~n_samples ~n_test =
  let cost = Sensor.Cost.of_mica2 topo mica in
  let samples = Sampling.Sample_set.draw rng field ~k ~count:n_samples in
  let test_epochs =
    Array.init n_test (fun _ -> field.Sampling.Field.draw rng)
  in
  { layout; topo; cost; mica; samples; test_epochs; k }

let uniform_gaussian ~seed ~n ~k ~n_samples ~n_test ?(mean_lo = 20.)
    ?(mean_hi = 26.) ?(sigma_lo = 1.5) ?(sigma_hi = 5.) () =
  let rng = Rng.create seed in
  let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
  let range = Sensor.Topology.min_connecting_range layout *. 1.1 in
  let topo = Sensor.Topology.build layout ~range in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo ~mean_hi ~sigma_lo ~sigma_hi
  in
  finish rng layout topo field ~k ~n_samples ~n_test

let lp_instance ~seed ~n ~n_samples ~k =
  let rng = Rng.create seed in
  let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
  let range = Sensor.Topology.min_connecting_range layout *. 1.25 in
  let topo = Sensor.Topology.build layout ~range in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:20. ~mean_hi:30.
      ~sigma_lo:1. ~sigma_hi:4.
  in
  finish rng layout topo field ~k ~n_samples ~n_test:0

let contention ~seed ~n_zones ~per_zone ~background ~k ~n_samples ~n_test
    ?(exceed_prob = 0.4) () =
  let rng = Rng.create seed in
  let layout =
    Sensor.Placement.zones rng ~n_zones ~per_zone ~background ~width:200.
      ~height:200. ()
  in
  let range = Sensor.Topology.min_connecting_range layout *. 1.1 in
  let topo = Sensor.Topology.build layout ~range in
  let field =
    Sampling.Field.contention_zones ~zone:layout.Sensor.Placement.zone
      ~background_mean:20. ~background_sigma:0.5 ~exceed_prob ~mean_gap:2.
  in
  finish rng layout topo field ~k ~n_samples ~n_test

let intel_lab ~seed ~k ~n_samples ~n_test () =
  let rng = Rng.create seed in
  let lab = Sampling.Intel_lab.generate rng ~epochs:(n_samples + n_test) () in
  let layout = lab.Sampling.Intel_lab.layout in
  (* The paper shortens the radio range to the minimum that still yields a
     fully connected tree, to force hierarchy onto the small lab. *)
  let range = Sensor.Topology.min_connecting_range layout +. 1e-9 in
  let topo = Sensor.Topology.build layout ~range in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let samples =
    Sampling.Sample_set.of_values ~k
      (Sampling.Intel_lab.training_epochs lab ~count:n_samples)
  in
  let test_epochs = Sampling.Intel_lab.test_epochs lab ~from_:n_samples in
  { layout; topo; cost; mica; samples; test_epochs; k }

let replan_samples t samples = { t with samples }
