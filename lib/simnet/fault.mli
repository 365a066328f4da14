(** Execution-layer fault injection for the discrete-event engine.

    {!Sensor.Failure} describes link trouble the way the {e planner} sees it
    (Section 4.4: inflate edge costs, assume the reliable protocol always
    recovers).  This module is the one model of what the {e execution}
    layer actually suffers.  Four fault classes compose:

    - {b Bernoulli drop}: every frame crossing an edge is lost independently
      with a per-edge probability (indexed by the child endpoint, like every
      other per-edge array in the repository);
    - {b burst loss}: a lost frame may open an outage window on its edge
      during which every subsequent frame is also lost, modelling
      interference bursts rather than independent bit errors;
    - {b node crash/restart}: scheduled intervals during which a node's
      radio hears nothing.  Frames sent to it are lost; the node's own
      already-queued transmissions still drain (the mote reboots with its
      RAM intact, so a crash is a reception outage, not an amnesia event);
    - {b detour} (Section 4.4): a unicast whose edge transiently fails is
      re-routed around it.  It still arrives, but pays the edge's
      re-routing premium in energy and one extra transmission delay.

    All randomness flows through the {!Rng.t} handed to {!start}, so a
    simulation under fault injection is reproducible bit-for-bit from its
    seed.  The model ([t]) is immutable; the mutable sampling state (burst
    windows, generator position) lives in {!state}. *)

type t

val none : n:int -> t
(** No faults on an [n]-node network. *)

val bernoulli : n:int -> drop:float -> t
(** The same independent drop probability on every edge.
    @raise Invalid_argument unless [drop] is in [0, 1]. *)

val of_probs : float array -> t
(** Per-edge drop probabilities, indexed by the child endpoint (the root's
    entry is ignored: it has no uplink edge).
    @raise Invalid_argument on a probability outside [0, 1]. *)

val of_failure : Sensor.Failure.t -> t
(** Replay the planner-side statistics as detours and nothing else: each
    original unicast over the edge above node [i] detours with probability
    [fail_prob.(i)] and then costs [reroute_factor.(i)] times its plain
    unicast cost.  No frame is ever dropped.
    @raise Invalid_argument on arrays of different lengths, a probability
    outside [0, 1] or a factor below 1. *)

val with_burst : t -> mean_length:float -> t
(** Every Bernoulli drop additionally opens an outage window of
    exponentially distributed length (mean [mean_length] seconds) on its
    edge; frames arriving inside the window are dropped without a fresh
    coin flip.  @raise Invalid_argument if [mean_length <= 0]. *)

val with_crashes : t -> (int * float * float) list -> t
(** [(node, down_at, up_at)] outage intervals; use [infinity] for a crash
    the node never recovers from.  Intervals are half-open
    [\[down_at, up_at)] and may overlap.
    @raise Invalid_argument on a bad node id or an inverted interval. *)

val n : t -> int

val node_up : t -> node:int -> at:float -> bool
(** Whether the node's radio is listening at simulation time [at]. *)

(** {1 Sampling state} *)

type state

val start : t -> Rng.t -> state
(** Begin a simulation run; the generator is owned by the caller and
    advanced deterministically, one draw per Bernoulli decision. *)

val config : state -> t

val drops_frame : state -> edge:int -> at:float -> bool
(** Decide the fate of one frame crossing [edge] at time [at]: inside an
    open burst window it is dropped outright; otherwise a Bernoulli draw is
    made (and, on a drop with bursts enabled, a new window is opened).
    Calls must be made in event order for reproducibility — the engine's
    event queue guarantees this. *)

val detour : state -> edge:int -> float option
(** Decide whether one original unicast over [edge] detours:
    [Some reroute_factor] if it does, [None] if not.  A model with detours
    makes exactly one draw per call, whatever the edge; any other model
    makes none, so drop, burst and crash runs keep their random streams. *)
