(** Energy to recover from a dead subtree: plan surgery vs a full
    re-plan (ours).

    Per victim, the installed LP+LF plan is repaired by
    {!Prospector.Repair.surgery}, warm-started from the undamaged solve as
    the controller replays it, and the delta-install energy (subplans
    unicast to the changed nodes only) is set against re-installing the
    repaired plan everywhere.  One controller campaign under a
    crash-restart schedule then gives the end-to-end recovery energy and
    the detection latency.  Every figure is model-derived and exact per
    seed; repair latency is measured by the benchmark instead. *)

val run : ?quick:bool -> seed:int -> unit -> Series.t list
