(** Shared experiment scaffolding: builds the network, the training sample
    set and the held-out test epochs for each of the paper's workloads. *)

type t = {
  layout : Sensor.Placement.t;
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  mica : Sensor.Mica2.t;
  samples : Sampling.Sample_set.t;  (** training samples for the planners *)
  test_epochs : float array array;  (** held-out epochs for measurement *)
  k : int;
}

val uniform_gaussian :
  seed:int ->
  n:int ->
  k:int ->
  n_samples:int ->
  n_test:int ->
  ?mean_lo:float ->
  ?mean_hi:float ->
  ?sigma_lo:float ->
  ?sigma_hi:float ->
  unit ->
  t
(** The synthetic setup of Figure 3: [n] nodes uniform in a square, the
    root at the center, independent per-node Gaussians with means and
    deviations from small ranges (defaults: means 20-30, sigmas 1-4). *)

val lp_instance : seed:int -> n:int -> n_samples:int -> k:int -> t
(** The planner-LP instance family of the "Other Results" solve times:
    [n] nodes uniform in a 200 m square, radio range 1.25x the minimum
    connecting one, per-node Gaussians (means 20-30, sigmas 1-4) and
    [n_samples] training samples; no test epochs.  The guarantee
    experiment and the LP iteration goldens build on it too. *)

val contention :
  seed:int ->
  n_zones:int ->
  per_zone:int ->
  background:int ->
  k:int ->
  n_samples:int ->
  n_test:int ->
  ?exceed_prob:float ->
  unit ->
  t
(** The contention-zone setup of Figures 5-7: zones around the perimeter,
    the root in the center, zone nodes exceeding the background level with
    probability [exceed_prob] (default 0.4) so zones brim with candidates
    of which only a few can rank. *)

val intel_lab :
  seed:int -> k:int -> n_samples:int -> n_test:int -> unit -> t
(** The Figure 9 setup: 54 lab motes, radio range shortened to the minimum
    that keeps the network connected, first epochs as samples. *)

val replan_samples : t -> Sampling.Sample_set.t -> t
(** Swap the training sample set (used by the sample-size experiment). *)
