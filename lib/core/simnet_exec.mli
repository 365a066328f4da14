(** Approximate-plan execution on the {!Simnet} discrete-event engine.

    Semantically identical to {!Exec.collect}, but the collection phase
    actually runs as messages between mote processes: the root broadcasts a
    trigger down the participating subtree, leaves respond, and each inner
    node forwards its local filter's output once all participating children
    have reported.  Used to validate the analytic executor (the test suite
    asserts both return the same answer and the same collection energy) and
    to study latency and per-node energy, which the analytic path cannot
    provide.

    With a [?fault] model the run goes over the engine's ACK/retransmission
    sublayer: recoverable frame loss changes nothing but energy and
    latency, while a child that stays unreachable past the retry budget has
    its whole subtree reported in [dark] and the collection completes
    without it instead of hanging. *)

type result = {
  returned : (int * float) list;
  total_mj : float;  (** trigger + collection energy, summed over nodes *)
  per_node_mj : float array;
  latency_s : float;  (** simulated time until the root has its answer *)
  unicasts : int;  (** retransmissions included *)
  reroutes : int;
  retransmissions : int;  (** frames re-sent by the reliability sublayer *)
  dark : int list;
      (** nodes cut off by dead links (sorted, deduplicated); empty when
          every loss was recovered *)
  give_ups : (int * float) list;
      (** one entry per give-up event, in event order: the unreachable
          endpoint and the simulated time the sender abandoned it.  The
          same endpoint can appear once per frame that gave up on it. *)
  gave_up_frames : int;
      (** the engine's own give-up counter ({!Simnet.Engine.gave_up});
          fast-fails on links already declared dead are not counted
          there, but each directed link carries at most one frame per
          collection, so here it always equals [List.length give_ups] *)
}

val collect :
  Sensor.Topology.t ->
  Sensor.Mica2.t ->
  ?fault:Simnet.Fault.t * Rng.t ->
  ?policy:Simnet.Reliable.policy ->
  Plan.t ->
  k:int ->
  readings:float array ->
  result
