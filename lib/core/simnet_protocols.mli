(** The query algorithms as actual message protocols on the {!Simnet}
    discrete-event engine.

    {!Simnet_exec} covers single-pass approximate plans; this module adds
    the pull-based NAIVE-1 pipeline and proof-carrying collection, each
    driven purely by request/response messages between mote processes.
    The test suite checks they return exactly what the analytic executors
    ({!Naive.naive_one}, {!Proof_exec.run}) compute, at exactly the same
    radio energy — the strongest evidence that the analytic cost accounting
    used by the planners matches a message-level execution.

    All three protocols also run over the engine's fault-injection regime
    ([?fault] with an optional retransmission [?policy]): recoverable frame
    loss leaves the answers bit-identical (the ACK/retransmit sublayer
    recovers every frame) at a higher measured energy, while links declared
    dead degrade the protocols gracefully — the affected subtree is
    reported in [dark] and execution still terminates. *)

type result = {
  returned : (int * float) list;
  total_mj : float;
  per_node_mj : float array;
  latency_s : float;
  unicasts : int;  (** retransmissions included *)
  retransmissions : int;  (** frames re-sent by the reliability sublayer *)
  dark : int list;
      (** nodes cut off by dead links (sorted, deduplicated); empty when
          every loss was recovered *)
}

val naive_one :
  Sensor.Topology.t ->
  Sensor.Mica2.t ->
  ?fault:Simnet.Fault.t * Rng.t ->
  ?policy:Simnet.Reliable.policy ->
  k:int ->
  readings:float array ->
  unit ->
  result
(** The pipelined exact algorithm: parents pull one value at a time from
    their children through per-node heaps; every pull is a real
    request/response message pair. *)

type proof_result = {
  base : result;
  proven_count : int;  (** leading answer values proven at the root *)
}

val proof_collect :
  Sensor.Topology.t ->
  Sensor.Mica2.t ->
  ?fault:Simnet.Fault.t * Rng.t ->
  ?policy:Simnet.Reliable.policy ->
  Plan.t ->
  k:int ->
  readings:float array ->
  unit ->
  proof_result
(** Proof-carrying collection: each upward message carries the values, the
    sender's proven-prefix length and its sent-everything flag; provenness
    is recomputed hop by hop exactly as in {!Proof_exec}.
    @raise Invalid_argument if some edge has zero bandwidth. *)

type exact_result = {
  answer : (int * float) list;  (** the exact top k *)
  proven_after_phase1 : int;
  total_mj : float;  (** both phases, triggers and requests included *)
  latency_s : float;
  unicasts : int;  (** retransmissions included *)
  retransmissions : int;
  dark : int list;
      (** with dead links the "exact" answer is only exact over the
          reachable nodes; [dark] lists the ones it could not see *)
}

val exact :
  Sensor.Topology.t ->
  Sensor.Mica2.t ->
  ?fault:Simnet.Fault.t * Rng.t ->
  ?policy:Simnet.Reliable.policy ->
  Plan.t ->
  k:int ->
  readings:float array ->
  unit ->
  exact_result
(** The full two-phase exact algorithm as messages: proof-carrying
    collection, then — when the root proves fewer than [k] values — a
    mop-up wave of range-request broadcasts answered bottom-up, nodes
    serving what they can from the values they retained in phase 1.  The
    answer always equals the true top k (asserted against {!Exact.run} in
    the test suite). *)
