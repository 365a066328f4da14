(* What every workload shares: run configuration, the correctness-check
   tally, the closed-loop timer, seeded network generation, the host
   calibration kernel and the shape of a workload's result. *)

type stop =
  | Seconds of float  (** closed loop for this much measured wall time *)
  | Units of int  (** exactly this many units (plans, rounds, epochs) *)

type config = {
  seed : int;
  stop : stop;
  trace : bool;
  quick : bool;  (** small instances, for the benchmark's own tests *)
}

(* Set-ups timed before the loop, and the seconds between the ones timed
   during it; [setup_s] is the median of all of them. *)
let setup_reps = 5
let resetup_every = 3.

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* ---- correctness checks ---- *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few failed checks, newest first *)
}

let checks () = { attempted = 0; failed = 0; failures = [] }

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.failures < 8 then c.failures <- what () :: c.failures
  end

type result = {
  end_to_end : metric list;  (** from the untraced measurement *)
  per_layer : metric list;  (** from the traced measurement and replay *)
  counts : (string * float) list;
      (** deterministic counts: equal for equal seeds and unit counts *)
  record : (string * Obs.Json.t) list;  (** provenance for the run record *)
  checks : checks;
  spans : Span.t;
}

(* ---- timing ---- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- host pace ---- *)

(* The benchmark shares its host, and the host's speed drifts by up to a
   half in phases of a few seconds: the neighbours' traffic slows memory
   access and allocation, while a loop of pure arithmetic keeps its speed.
   Whole 30 s runs of identical work came out 25-45% apart.  So a fixed
   kernel of the benchmark's own — allocation, a hash table, a sparse
   gather and a sort, nothing from the libraries under test — is timed
   between units every few tenths of a second, and every time that
   feeds an end-to-end metric is scaled by the reference pace over the
   kernel's time around it.  End-to-end times thus read as milliseconds
   (or seconds) at the host speed at which the kernel takes the reference
   time; a change in the code under test moves them as it moves the raw
   times, since the kernel does not change with it.

   A workload that fans out over two domains is paced by the kernel run on
   two domains at once (one spawned, joined at the end): a round waits for
   both cores, and a stall of either one, which one domain's kernel never
   sees, slows it.

   The reference is the kernel's time on one domain or on two at about
   the speed of a quiet phase on a shared 2-vCPU VM. *)
let pace_ref_ms ~domains = if domains > 1 then 6.5 else 4.5

let pace_data =
  lazy
    (let rng = Rng.create 777 in
     let dim = 20_000 in
     ( Array.init 50_000 (fun _ -> Rng.int rng dim),
       Array.init 50_000 (fun _ -> Rng.float rng 1.),
       Array.init dim (fun i -> float_of_int (i mod 13)),
       Array.init 5_000 (fun _ -> Rng.float rng 1.) ))

let pace_kernel () =
  let idx, coef, x, keys = Lazy.force pace_data in
  let l = ref [] in
  for i = 1 to 20_000 do
    l := (float_of_int i, i) :: !l
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 5_000 do
    Hashtbl.replace h (i * 7919) (float_of_int i)
  done;
  let s = ref (float_of_int (List.length !l)) in
  for i = 0 to 10_000 do
    match Hashtbl.find_opt h (i * 3) with Some v -> s := !s +. v | None -> ()
  done;
  for j = 0 to Array.length idx - 1 do
    s := !s +. (coef.(j) *. x.(idx.(j)))
  done;
  let sorted = Array.copy keys in
  Array.sort Float.compare sorted;
  !s +. sorted.(0)

(* One timing of the kernel on [domains] (1 or 2) domains, in ms. *)
let pace_ms ~domains =
  ignore (Lazy.force pace_data);
  let run () =
    if domains > 1 then begin
      let d = Domain.spawn (fun () -> Sys.opaque_identity (pace_kernel ())) in
      ignore (Sys.opaque_identity (pace_kernel ()));
      ignore (Domain.join d)
    end
    else ignore (Sys.opaque_identity (pace_kernel ()))
  in
  1000. *. snd (timed run)

(* ---- set-up ---- *)

(* A workload's set-up and the seconds each timed run of it took, scaled
   to the reference pace.  Set-ups are timed before the loop and again
   every [resetup_every] seconds during it (see [closed_loop]), their
   results discarded: set-ups spread over the run give a median that moves
   less from run to run than set-ups made in one burst. *)
type 'a setup = { make : unit -> 'a; mutable times : float list }

(* A full major collection first, outside the timer, so that the garbage
   of the previous set-up is not collected inside this one; the kernel is
   timed, on one domain as every set-up runs, just before and just after. *)
let timed_setup s =
  Gc.full_major ();
  let p0 = pace_ms ~domains:1 in
  let r, t = timed s.make in
  let p1 = pace_ms ~domains:1 in
  s.times <- (t *. pace_ref_ms ~domains:1 /. ((p0 +. p1) /. 2.)) :: s.times;
  r

(* [setup_reps] timed set-ups; returns the last one's result. *)
let setup make =
  let s = { make; times = [] } in
  for _ = 2 to setup_reps do
    ignore (timed_setup s)
  done;
  (s, timed_setup s)

let setup_s s = Bstat.median (Array.of_list s.times)
let setup_count s = List.length s.times

(* The major heap in MB right after a full major collection: what the
   process still holds, live data and the pools it keeps.  OCaml 5.1's
   [top_heap_words] is no steadier measure of a peak: it falls again after
   a collection once worker domains have exited, and read at a fixed round
   of serve-mix it spread by a fifth from run to run, against 3% for this
   figure. *)
let heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1048576.

type loop = {
  plain : float array;  (** untraced units' ms at the reference pace, in order *)
  plain_units : int array;  (** the index of each of them *)
  traced : float array;  (** the same for traced units *)
  heap_mb : float;
  pace : float array;  (** every kernel timing of the loop, in ms *)
}

(* Closed loop: [step i traced] runs unit [i] and returns the ms it spent
   in the system under test (its own bookkeeping stays outside).  Units for
   which [traced i] holds are recorded with spans; traced and untraced
   units interleave, so both see the same phases of the host.  Stops after
   [stop], but under [Seconds] not before [heap_after] units.  The pace
   kernel, on as many domains as the units run on, runs before the first
   unit, after the last and after every [pace_every] units (a count, not
   a time, so that what it leaves in the heap is fixed in work too); each
   unit's time is scaled by the reference pace over the median of the two
   kernel timings before it and the two after.  [heap_mb] is read once
   [heap_after] units have run (or at the end of a shorter [Units] loop):
   a point fixed in work, not in time, so the figure does not move with
   the speed of the host or the build.  After that point, every [resetup_every] seconds between units,
   it times one more run of [setup]. *)
let closed_loop ?(traced = fun _ -> false) ?(domains = 1) ~setup ~heap_after ~pace_every stop
    step =
  (* durations go to unboxed, doubling arrays: a list of boxed floats per
     unit would itself show in [heap_mb] *)
  let buf zero = (ref (Array.make 1024 zero), ref 0) in
  let push (a, n) d =
    if !n = Array.length !a then begin
      let b = Array.make (2 * !n) d in
      Array.blit !a 0 b 0 !n;
      a := b
    end;
    !a.(!n) <- d;
    incr n
  in
  let contents (a, n) = Array.sub !a 0 !n in
  (* per unit: raw ms, whether traced, and the number of kernel timings
     made before it *)
  let raw = buf 0. and kinds = buf false and seg = buf 0 and pace = buf 0. in
  let heap = ref None in
  let t_start = now () in
  let last_setup = ref t_start in
  let sample_pace () = push pace (pace_ms ~domains) in
  sample_pace ();
  let rec go i =
    let more =
      match stop with
      | Seconds s -> i < heap_after || now () -. t_start < s
      | Units n -> i < n
    in
    if more then begin
      let t = traced i in
      push seg !(snd pace);
      push kinds t;
      push raw (step i t);
      if i + 1 = heap_after then heap := Some (heap_mb ());
      if i + 1 >= heap_after && now () -. !last_setup >= resetup_every then begin
        ignore (timed_setup setup);
        last_setup := now ()
      end;
      if (i + 1) mod pace_every = 0 then sample_pace ();
      go (i + 1)
    end
  in
  go 0;
  sample_pace ();
  let raw = contents raw and kinds = contents kinds and seg = contents seg in
  let pace = contents pace in
  let np = Array.length pace in
  (* unit [u] ran between kernel timings [seg.(u) - 1] and [seg.(u)];
     [local j] is the median of timings [j - 2] to [j + 1] *)
  let local j =
    let lo = Int.max 0 (j - 2) in
    Bstat.median (Array.sub pace lo (Int.min np (j + 2) - lo))
  in
  let scaled u = raw.(u) *. pace_ref_ms ~domains /. local seg.(u) in
  let pick want =
    let us =
      List.filter (fun u -> Bool.equal kinds.(u) want) (List.init (Array.length raw) Fun.id)
    in
    (Array.of_list (List.map scaled us), Array.of_list us)
  in
  let plain, plain_units = pick false and traced, _ = pick true in
  {
    plain;
    plain_units;
    traced;
    heap_mb = (match !heap with Some h -> h | None -> heap_mb ());
    pace;
  }

(* Host calibration: a fixed seeded sparse LU factor plus solves, the
   median of five.  It reads the host's current speed, independent of the
   code under test's own inputs. *)
let calib_ms () =
  let dim = 200 in
  let rng = Rng.create 424242 in
  let cols =
    Array.init dim (fun j ->
        let entries = ref [ (j, 4. +. Rng.float rng 1.) ] in
        for _ = 1 to 3 do
          let i = Rng.int rng dim in
          if i <> j then entries := (i, Rng.uniform rng ~lo:(-1.) ~hi:1.) :: !entries
        done;
        Lp.Sparse_vec.of_assoc !entries)
  in
  let b = Array.init dim (fun i -> float_of_int (i mod 7) -. 3.) in
  let once () =
    let lu = Lp.Lu.factor ~dim cols in
    for _ = 1 to 10 do
      ignore (Lp.Lu.solve lu b);
      ignore (Lp.Lu.solve_transpose lu b)
    done
  in
  let times = Array.init 5 (fun _ -> snd (timed once) *. 1000.) in
  Bstat.median times

(* ---- seeded inputs ---- *)

type network = {
  topo : Sensor.Topology.t;
  cost : Sensor.Cost.t;
  field : Sampling.Field.t;
  anchor : float;
      (** full-collection energy: one value per edge (the bandwidth-1
          plan), the unit every budget here is a multiple of *)
}

let mica = Sensor.Mica2.default

(* A uniformly placed network with a minimum-hop tree at [range_factor]
   times the connecting range and a random Gaussian value field; draws
   from [rng] in the same order as the repository's LP timing instances,
   so [Rng.create 20060403] at n = 100 rebuilds the reference instance. *)
let network rng ~n ~range_factor =
  let layout = Sensor.Placement.uniform rng ~n ~width:200. ~height:200. () in
  let range = Sensor.Topology.min_connecting_range layout *. range_factor in
  let topo = Sensor.Topology.build layout ~range in
  let cost = Sensor.Cost.of_mica2 topo mica in
  let field =
    Sampling.Field.random_gaussian rng ~n ~mean_lo:20. ~mean_hi:30.
      ~sigma_lo:1. ~sigma_hi:4.
  in
  let anchor =
    Prospector.Plan.expected_collection_mj topo cost
      (Prospector.Proof_exec.min_bandwidth_plan topo)
  in
  { topo; cost; field; anchor }

let draw_epochs rng (net : network) count =
  Array.init count (fun _ -> net.field.Sampling.Field.draw rng)

(* Score a plan on held-out epochs with the analytic executor: mean share
   of the true top k returned and mean collection energy. *)
let score (net : network) plan ~k epochs =
  let acc = ref 0. and mj = ref 0. in
  Array.iter
    (fun readings ->
      let o = Prospector.Exec.collect net.topo net.cost plan ~k ~readings in
      acc := !acc +. Prospector.Exec.accuracy ~k ~readings o.Prospector.Exec.returned;
      mj := !mj +. o.Prospector.Exec.collection_mj)
    epochs;
  let c = float_of_int (Array.length epochs) in
  (!acc /. c, !mj /. c)

let plan_certified (r : Prospector.Lp_lf.result) =
  match (r.certify, r.provenance) with
  | _, Prospector.Robust_plan.Fell_back_greedy | None, _ -> false
  | Some rep, _ -> rep.Lp.Certify.certified

let provenance_counts provs =
  let dense =
    List.length
      (List.filter
         (Prospector.Robust_plan.provenance_equal
            Prospector.Robust_plan.Certified_dense)
         provs)
  and greedy =
    List.length
      (List.filter
         (Prospector.Robust_plan.provenance_equal
            Prospector.Robust_plan.Fell_back_greedy)
         provs)
  in
  (dense, greedy)

(* The end-to-end metrics every workload reports, in one place. *)
let end_to_end ~setup_s ~p50 ~(tail : Bstat.tail) ~throughput ~accuracy ~energy_mj
    ~certified_floor ~heap_mb =
  [
    m "setup_s" "s" setup_s;
    m "latency_p50_ms" "ms" p50;
    m "latency_tail_ms" "ms" tail.value;
    m "throughput_per_s" "units/s" throughput;
    m "accuracy" "fraction" accuracy;
    m "energy_mj" "mJ/epoch" energy_mj;
    m "certified_floor" "fraction" certified_floor;
    m "heap_peak_mb" "MB" heap_mb;
  ]

(* Units per second of time spent in the system under test. *)
let throughput lat_ms =
  float_of_int (Array.length lat_ms) /. (Array.fold_left ( +. ) 0. lat_ms /. 1000.)

let tail_json (t : Bstat.tail) =
  Obs.Json.Obj
    [
      ("percentile", Obs.Json.Num t.Bstat.pct);
      ("samples", Obs.Json.Num (float_of_int t.Bstat.n));
      ("beyond", Obs.Json.Num (float_of_int t.Bstat.beyond));
    ]

(* The pace kernel's timings in a run record: the reference, the median
   and the spread of the host's speed over the run. *)
let pace_json ~domains p =
  Obs.Json.Obj
    [
      ("domains", Obs.Json.Num (float_of_int domains));
      ("ref_ms", Obs.Json.Num (pace_ref_ms ~domains));
      ("samples", Obs.Json.Num (float_of_int (Array.length p)));
      ("p10_ms", Obs.Json.Num (Bstat.quantile p 0.1));
      ("median_ms", Obs.Json.Num (Bstat.median p));
      ("p90_ms", Obs.Json.Num (Bstat.quantile p 0.9));
    ]
