(** Certified (ε, δ) guarantee vs energy budget (ours; the paper reports
    empirical accuracy only).

    One fixed network and a budget ladder at two confidence levels.  Each
    rung plans on one sample window and certifies on a disjoint one, the
    discipline {!Prospector.Robust_plan.plan_with_guarantee} enforces, so
    the reported ε is honest certified slack rather than a resubstitution
    estimate.  A final escalation run reads the curve in reverse: fix the
    (ε, δ) target and let the ladder find the budget. *)

val run : ?quick:bool -> seed:int -> unit -> Series.t list
