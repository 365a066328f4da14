(** Multi-tenant top-k query serving.

    The paper's planners are batch jobs: one PROSPECTOR run plans one
    query on one network.  This module turns them into a service: tenants
    {!register} networks (topology + cost model + sample window), then
    submit streams of top-k queries against them; the server admits
    queries in deterministic batches, canonicalizes each to a
    {!Fingerprint}, coalesces duplicates in flight, serves repeats from a
    {!Plan_cache} (exact hits and certified budget-range hits), warm-starts
    misses from a shared {!Basis_pool}, and fans the remaining LP solves
    across OCaml 5 domains.

    {b Certification discipline}: an uncertified plan is never served.
    Every {!Served} response carries the PR-3 certification report that
    admitted its LP solution — including responses served from the cache,
    whose report was computed at exactly the served budget — and, when the
    query requested an (ε, δ) target, a PR-7 {!Prospector.Guarantee.t} meeting it.
    Greedy fallbacks, failed certifications and unattainable guarantee
    targets yield {!Refused}, never a silently weaker answer.

    {b Determinism}: all admission, cache, pool and coalescing decisions
    happen on the coordinating domain between fan-out barriers, and every
    solve is a pure function of coordinator-chosen inputs (model + warm
    basis).  Worker domains only decide {e when} work runs, never {e what}
    it computes, so identical query streams produce bit-identical
    responses and hit/miss traces whatever [domains] is.  Tasks are
    claimed from a fixed-order queue through one atomic cursor — a
    deterministic work-stealing order: the claim sequence is the admission
    order even though the claimant identities are timing-dependent.

    {b Telemetry}: the server keeps its own always-on tallies ({!stats})
    and emits one [Serve] trace span per admission batch.  The trace sink
    is single-domain by design, so while one is installed the server runs
    its solves inline (effective [domains] = 1); parallel fan-out is for
    the untraced serving configuration. *)

type config = {
  cache_capacity : int;  (** exact plan-cache entries (and families); 0 disables *)
  pool_capacity : int;  (** warm-basis pool entries per LP shape; 0 disables *)
  batch : int;  (** admission batch size *)
  domains : int;  (** worker domains for miss fan-out (>= 1) *)
  max_lp_iterations : int option;  (** per-solve pivot cap (tests) *)
  lp_deadline : float option;  (** per-solve wall-clock budget, seconds *)
}

val default_config : config
(** cache 256, pool 8 per shape, batch 32, domains 1, no solver caps. *)

type t

val create : ?config:config -> unit -> t

val register :
  t -> Sensor.Topology.t -> Sensor.Cost.t -> Sampling.Sample_set.t -> int
(** Register a tenant network and its sample window; returns the network
    id queries name.  The window's raw values are re-ranked per queried
    [k], so tenants may ask any [1 <= k <= n] regardless of the [k] the
    window was drawn at. *)

val update_window : t -> network:int -> Sampling.Sample_set.t -> unit
(** Install a fresh sample window and bump the network's window version:
    cached plans for older windows age out of the LRU naturally (their
    fingerprints can no longer be formed), while pooled bases of the same
    shape remain available as warm-start hints. *)

val network_count : t -> int

type query = {
  network : int;
  k : int;
  budget : float;
  guarantee : (float * float) option;  (** optional (ε, δ) target *)
}

val query : ?guarantee:float * float -> network:int -> k:int -> float -> query
(** [query ~network ~k budget] names a top-k query against a registered
    network. *)

(** How a served plan was obtained. *)
type source =
  | Cache_hit  (** exact fingerprint: no model build, no solve *)
  | Range_hit
      (** same family, budget inside the certified budget-range: warm
          re-solve from the family basis (usually 0 pivots) + certify *)
  | Pool_warm
      (** miss warm-started from a pooled basis — the query's own family
          basis when its budget falls outside the family's certified
          range (a certified 0-pivot re-solve then widens the range to
          cover it), otherwise the shared pool's nearest-budget basis *)
  | Cold  (** miss solved from scratch *)

val source_to_string : source -> string

type response = {
  plan : Prospector.Plan.t;
  objective : float;  (** LP objective (expected covered ones) *)
  provenance : Prospector.Robust_plan.provenance;
  certify : Lp.Certify.report;  (** always present: uncertified is refused *)
  guarantee : Prospector.Guarantee.t option;
      (** present iff the query requested a target; always meets it *)
  source : source;
  coalesced : bool;
      (** served by riding an identical in-flight query's solve *)
  solve_ms : float;  (** this query's own solve time; 0 when not solved *)
  budget : float;  (** the budget the plan is certified at (the query's) *)
}

type outcome = Served of response | Refused of string

val run : t -> query array -> outcome array
(** Serve a stream: split into admission batches, decide, fan out, commit.
    [outcomes.(i)] answers [queries.(i)].  Never raises on solver failure
    or bad queries — both are {!Refused}. *)

type stats = {
  queries : int;
  batches : int;
  cache_hits : int;
  range_hits : int;
  pool_hits : int;
  cold_misses : int;
  coalesced : int;
  refused : int;
  solves : int;  (** LP plans actually computed (tasks executed) *)
  evictions : int;  (** plan-cache evictions *)
}

val stats : t -> stats
(** Always-on tallies since creation (independent of Obs gating). *)

val trace : t -> (string * string) list
(** One [(exact fingerprint key, tag)] pair per admitted query, in
    admission order — the determinism witness the tests compare across
    domain counts.  Tags: ["cache"], ["range"], ["pool"], ["cold"],
    ["coalesced"], ["refused"]. *)

val clear_trace : t -> unit

val arena_stats : t -> (int * float) array
(** Per-domain-slot solver-arena rollup: (solves executed, busy seconds),
    index 0 being the coordinator's inline slot. *)
