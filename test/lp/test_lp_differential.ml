(* Randomized differential testing of the two simplex implementations.

   Each seed deterministically generates a small bounded-variable LP which
   is then solved three ways: by the sparse revised simplex (cold and
   warm-started from its own basis), and by the independent dense tableau
   simplex with the variable bounds materialized as explicit rows.  The
   verdicts (optimal / infeasible / unbounded) must agree exactly and the
   optimal objectives to 1e-6 — the objective value at an optimum is
   unique even when the optimal vertex is not, so this is a sound oracle.
   A final sweep re-solves perturbed-rhs copies warm vs cold. *)

type spec = {
  maximize : bool;
  lower : float array;
  upper : float array; (* infinity = unbounded above *)
  obj : float array;
  rows : (float array * Lp.Model.sense * float) array;
}

(* Lower bounds are kept non-negative so the dense reference — which bakes
   in x >= 0 — can express every bound as a row without shifting. *)
let gen_spec rng =
  let n = 1 + Rng.int rng 6 in
  let m = 1 + Rng.int rng 6 in
  let lower =
    Array.init n (fun _ -> if Rng.bool rng then 0. else Rng.float rng 2.)
  in
  let upper =
    Array.init n (fun i ->
        if Rng.int rng 3 = 0 then lower.(i) +. Rng.float rng 3. else infinity)
  in
  let obj =
    Array.init n (fun _ ->
        if Rng.int rng 4 = 0 then 0. else Rng.uniform rng ~lo:(-5.) ~hi:5.)
  in
  let rows =
    Array.init m (fun _ ->
        let coeffs =
          Array.init n (fun _ ->
              if Rng.int rng 3 = 0 then 0. else Rng.uniform rng ~lo:(-4.) ~hi:4.)
        in
        let sense =
          match Rng.int rng 5 with
          | 0 | 1 -> Lp.Model.Le
          | 2 | 3 -> Lp.Model.Ge
          | _ -> Lp.Model.Eq
        in
        (coeffs, sense, Rng.uniform rng ~lo:(-10.) ~hi:10.))
  in
  { maximize = Rng.bool rng; lower; upper; obj; rows }

let build_model spec =
  let dir = if spec.maximize then Lp.Model.Maximize else Lp.Model.Minimize in
  let m = Lp.Model.create ~direction:dir () in
  let xs =
    Array.init (Array.length spec.lower) (fun i ->
        Lp.Model.add_var m ~lower:spec.lower.(i) ~upper:spec.upper.(i)
          ~obj:spec.obj.(i)
          (Printf.sprintf "x%d" i))
  in
  Array.iter
    (fun (coeffs, sense, rhs) ->
      let terms =
        Array.to_list (Array.mapi (fun i c -> (c, xs.(i))) coeffs)
        |> List.filter (fun (c, _) -> c <> 0.)
      in
      (* An all-zero row still constrains: 0 <sense> rhs. *)
      let terms = if terms = [] then [ (0., xs.(0)) ] else terms in
      Lp.Model.add_constraint m terms sense rhs)
    spec.rows;
  m

let dense_sense = function
  | Lp.Model.Le -> Lp.Dense_simplex.Le
  | Lp.Model.Ge -> Lp.Dense_simplex.Ge
  | Lp.Model.Eq -> Lp.Dense_simplex.Eq

let solve_dense spec =
  let n = Array.length spec.lower in
  let unit i = Array.init n (fun j -> if j = i then 1. else 0.) in
  let bound_rows =
    List.concat
      (List.init n (fun i ->
           (if spec.lower.(i) > 0. then
              [ (unit i, Lp.Dense_simplex.Ge, spec.lower.(i)) ]
            else [])
           @
           if spec.upper.(i) < infinity then
             [ (unit i, Lp.Dense_simplex.Le, spec.upper.(i)) ]
           else []))
  in
  let rows =
    Array.append
      (Array.map (fun (c, s, r) -> (Array.copy c, dense_sense s, r)) spec.rows)
      (Array.of_list bound_rows)
  in
  Lp.Dense_simplex.solve ~maximize:spec.maximize ~obj:(Array.copy spec.obj)
    ~constraints:rows ()

let model_status_name = function
  | Lp.Model.Optimal -> "optimal"
  | Lp.Model.Infeasible -> "infeasible"
  | Lp.Model.Unbounded -> "unbounded"
  | Lp.Model.Iteration_limit -> "iteration-limit"

let dense_status_name = function
  | Lp.Dense_simplex.Optimal -> "optimal"
  | Lp.Dense_simplex.Infeasible -> "infeasible"
  | Lp.Dense_simplex.Unbounded -> "unbounded"
  | Lp.Dense_simplex.Iteration_limit -> "iteration-limit"

let close a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.max (Float.abs a) (Float.abs b))

let check_close ~seed ~what a b =
  if not (close a b) then
    Alcotest.failf "seed %d: %s objectives differ: %.9g vs %.9g" seed what a b

let n_cases = 200

let test_revised_vs_dense () =
  let optimal = ref 0 and infeasible = ref 0 and unbounded = ref 0 in
  for seed = 0 to n_cases - 1 do
    let spec = gen_spec (Rng.create seed) in
    let model = build_model spec in
    let rev = Lp.Model.solve model in
    let dense = solve_dense spec in
    (match (rev.Lp.Model.status, dense.Lp.Dense_simplex.status) with
    | Lp.Model.Optimal, Lp.Dense_simplex.Optimal ->
        incr optimal;
        check_close ~seed ~what:"revised vs dense" rev.Lp.Model.objective
          dense.Lp.Dense_simplex.objective
    | Lp.Model.Infeasible, Lp.Dense_simplex.Infeasible -> incr infeasible
    | Lp.Model.Unbounded, Lp.Dense_simplex.Unbounded -> incr unbounded
    | rs, ds ->
        Alcotest.failf "seed %d: verdicts differ: revised %s vs dense %s" seed
          (model_status_name rs) (dense_status_name ds));
    (* Warm-starting the revised solver from its own final basis must
       reproduce its verdict and objective exactly. *)
    match rev.Lp.Model.basis with
    | None -> ()
    | Some basis ->
        let warm = Lp.Model.solve ~warm_start:basis model in
        if not (Lp.Model.status_equal warm.Lp.Model.status rev.Lp.Model.status)
        then
          Alcotest.failf "seed %d: warm re-solve changed the verdict to %s"
            seed
            (model_status_name warm.Lp.Model.status);
        if rev.Lp.Model.status = Lp.Model.Optimal then
          check_close ~seed ~what:"warm vs cold" warm.Lp.Model.objective
            rev.Lp.Model.objective
  done;
  (* The generator must keep exercising all three verdicts, or the
     differential coverage silently rots. *)
  Alcotest.(check bool)
    (Printf.sprintf "all verdicts covered (opt %d, inf %d, unb %d)" !optimal
       !infeasible !unbounded)
    true
    (!optimal > 0 && !infeasible > 0 && !unbounded > 0)

(* Perturbing every rhs slightly and re-solving from the unperturbed basis
   is the planner's replanning pattern; warm and cold must agree on the
   perturbed model. *)
let test_warm_start_perturbed () =
  for seed = 0 to (n_cases / 4) - 1 do
    let spec = gen_spec (Rng.create (10_000 + seed)) in
    let rev = Lp.Model.solve (build_model spec) in
    match rev.Lp.Model.basis with
    | None -> ()
    | Some basis ->
        let prng = Rng.create (20_000 + seed) in
        let spec' =
          {
            spec with
            rows =
              Array.map
                (fun (c, s, rhs) ->
                  (c, s, rhs +. Rng.uniform prng ~lo:(-0.1) ~hi:0.1))
                spec.rows;
          }
        in
        let model' = build_model spec' in
        let cold = Lp.Model.solve model' in
        let warm = Lp.Model.solve ~warm_start:basis model' in
        if not (Lp.Model.status_equal warm.Lp.Model.status cold.Lp.Model.status)
        then
          Alcotest.failf
            "seed %d: perturbed verdicts differ: warm %s vs cold %s" seed
            (model_status_name warm.Lp.Model.status)
            (model_status_name cold.Lp.Model.status);
        if cold.Lp.Model.status = Lp.Model.Optimal then
          check_close ~seed ~what:"perturbed warm vs cold"
            warm.Lp.Model.objective cold.Lp.Model.objective
  done

let () =
  Alcotest.run "lp_differential"
    [
      ( "differential",
        [
          Alcotest.test_case "revised (cold+warm) vs dense, 200 random LPs"
            `Quick test_revised_vs_dense;
          Alcotest.test_case "perturbed rhs: warm = cold" `Quick
            test_warm_start_perturbed;
        ] );
    ]
