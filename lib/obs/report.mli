(** Per-run aggregation of a trace: one row per (kind, name) with counts,
    wall-clock totals and summed numeric attributes, plus each kind's
    exact nearest-rank p50/p90/p99/max span duration (events with
    [dur_s > 0] only).  Used by [bin/obs_report] to pretty-print any
    exported trace file. *)

type row = {
  kind : Trace.kind;
  name : string;
  count : int;
  total_dur_s : float;
  max_dur_s : float;
  attr_sums : (string * float) list;  (** numeric attrs, summed *)
}

type t

val of_events : Trace.event list -> t

val rows : t -> row list
(** Sorted by (kind, name). *)

val pp : Format.formatter -> t -> unit
