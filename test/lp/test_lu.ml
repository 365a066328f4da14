(* Sparse LU factorization: a bit-exact golden on the basis the reference
   LP+LF instance ends with, and randomized properties — small residuals
   on random nonsingular bases (general and slack-heavy near-triangular),
   both orientations, and [Singular] on structurally singular ones. *)

let bench_seed = 20060403

(* The final basis matrix of the lp+lf n=100 instance (30 samples, k=20)
   at 1.2x a full collection; a [-1] basis entry is that row's artificial,
   a unit column. *)
let reference_basis () =
  let s = Experiments.Setup.lp_instance ~seed:bench_seed ~n:100 ~n_samples:30 ~k:20 in
  let topo = s.Experiments.Setup.topo and cost = s.Experiments.Setup.cost in
  let full =
    Prospector.Plan.expected_collection_mj topo cost
      (Prospector.Proof_exec.min_bandwidth_plan topo)
  in
  let prob =
    Lp.Model.to_problem
      (Prospector.Lp_lf.lp_model topo cost s.Experiments.Setup.samples
         ~budget:(1.2 *. full) ~k:s.Experiments.Setup.k)
  in
  let res = Lp.Revised.solve prob in
  Array.mapi
    (fun i c ->
      if c < 0 then Lp.Sparse_vec.of_assoc [ (i, 1.) ] else prob.Lp.Problem.cols.(c))
    res.Lp.Revised.basis.Lp.Revised.vars

(* A fixed right-hand side of exactly representable values. *)
let fixed_rhs dim salt =
  Array.init dim (fun i -> (float_of_int (((i * salt) + 11) mod 101) /. 16.) -. 3.)

let hex_digest v =
  Digest.to_hex
    (Digest.string (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") v))))

let sum v = Array.fold_left ( +. ) 0. v

(* Pinned bit for bit, here and in the next golden: the fill, and the
   solves of both orientations (an MD5 of every entry printed as a hex
   float, plus the entry sum).  A different pivot order, fill or update
   order moves these. *)
let test_reference_golden () =
  let cols = reference_basis () in
  let dim = Array.length cols in
  Alcotest.(check int) "dim" 1783 dim;
  let lu = Lp.Lu.factor ~dim cols in
  Alcotest.(check int) "fill_nnz" 3281 (Lp.Lu.fill_nnz lu);
  let x = Lp.Lu.solve lu (fixed_rhs dim 37) in
  let y = Lp.Lu.solve_transpose lu (fixed_rhs dim 53) in
  Alcotest.(check string) "solve sum" "0x1.8060a3d70a3d8p+5" (Printf.sprintf "%h" (sum x));
  Alcotest.(check string) "solve digest" "5768eec5eb8c4098d9d84afa1ef557fe" (hex_digest x);
  Alcotest.(check string) "solve_transpose sum" "0x1.0a6f5c28f5c24p+8" (Printf.sprintf "%h" (sum y));
  Alcotest.(check string) "solve_transpose digest" "b0783c79ba19675ef9752412f510a8d2" (hex_digest y)

(* A fixed 300 x 300 matrix with no singleton row or column (a diagonal
   plus three off-diagonal entries per column, from a small LCG so it
   does not depend on the stdlib generator): the factorization must go
   through the Markowitz scan, row singletons created by elimination,
   and fill. *)
let markowitz_basis () =
  let dim = 300 in
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x7fffffff;
    !state
  in
  let value () = (float_of_int (next () mod 2001) /. 1000.) -. 1. in
  Array.init dim (fun j ->
      let extra = List.init 3 (fun _ -> (next () mod dim, value ())) in
      Lp.Sparse_vec.of_assoc ((j, 4. +. value ()) :: ((j + 1) mod dim, value ()) :: extra))

let test_markowitz_golden () =
  let cols = markowitz_basis () in
  let dim = Array.length cols in
  let lu = Lp.Lu.factor ~dim cols in
  let x = Lp.Lu.solve lu (fixed_rhs dim 37) in
  let y = Lp.Lu.solve_transpose lu (fixed_rhs dim 53) in
  Alcotest.(check int) "fill_nnz" 6982 (Lp.Lu.fill_nnz lu);
  Alcotest.(check string) "solve sum" "0x1.95bd7bdf48581p+3" (Printf.sprintf "%h" (sum x));
  Alcotest.(check string) "solve digest" "664596d988acc6d547041e3b9da55f90" (hex_digest x);
  Alcotest.(check string) "solve_transpose sum" "0x1.99fbcf549dbfap+2" (Printf.sprintf "%h" (sum y));
  Alcotest.(check string) "solve_transpose digest" "0a1f502f4f610180af530d260ca09a5f" (hex_digest y)

(* ---- random bases ---- *)

let shuffle rand a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let signed rand lo hi =
  let v = lo +. Random.State.float rand (hi -. lo) in
  if Random.State.bool rand then v else -.v

(* A random nonsingular [dim] x [dim] basis as columns.  Near-triangular
   mode: a row- and column-permuted upper-triangular matrix with
   diagonal magnitudes in [1, 2], where [slack_frac] of the columns are
   bare unit vectors (slacks) and the rest carry a few small entries
   above the diagonal.  Otherwise a column-diagonally-dominant sparse
   matrix. *)
let random_basis rand ~dim ~near_triangular ~slack_frac =
  let prow = Array.init dim Fun.id and pcol = Array.init dim Fun.id in
  shuffle rand prow;
  shuffle rand pcol;
  let cols = Array.make dim [] in
  for j = 0 to dim - 1 do
    let diag = signed rand 1. 2. in
    let extra =
      if near_triangular then
        if Random.State.float rand 1. < slack_frac || j = 0 then []
        else
          List.init (1 + Random.State.int rand 3) (fun _ ->
              (Random.State.int rand j, signed rand 0.05 0.5))
      else
        List.init (Random.State.int rand 4) (fun _ ->
            let i = Random.State.int rand dim in
            (i, if i = j then 0. else signed rand 0.01 (0.2 *. Float.abs diag)))
    in
    (* Column dominance: the off-diagonal sum stays below the diagonal. *)
    let extra = List.filter (fun (i, _) -> i <> j) extra in
    cols.(pcol.(j)) <-
      (prow.(j), diag) :: List.map (fun (i, v) -> (prow.(i), v)) extra
  done;
  Array.map Lp.Sparse_vec.of_assoc cols

let dense_mul cols v =
  let dim = Array.length cols in
  let out = Array.make dim 0. in
  Array.iteri (fun j c -> Lp.Sparse_vec.axpy_dense v.(j) c out) cols;
  out

let dense_mul_t cols v = Array.map (fun c -> Lp.Sparse_vec.dot_dense c v) cols

let inf_norm v = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. v

let residual_small ~apply ~x ~b =
  let r = apply x in
  let worst = ref 0. in
  Array.iteri (fun i ri -> worst := Float.max !worst (Float.abs (ri -. b.(i)))) r;
  !worst <= 1e-9 *. (1. +. inf_norm b +. inf_norm x)

let basis_gen =
  QCheck.make
    ~print:(fun (seed, dim, tri, frac) ->
      Printf.sprintf "seed=%d dim=%d near_triangular=%b slack_frac=%.2f" seed dim tri frac)
    QCheck.Gen.(
      quad (0 -- 1_000_000) (1 -- 60) bool (float_range 0. 0.95))

let random_residuals =
  QCheck.Test.make ~name:"B solve(b) = b and B^T solve_transpose(c) = c" ~count:200
    basis_gen (fun (seed, dim, near_triangular, slack_frac) ->
      let rand = Random.State.make [| seed |] in
      let cols = random_basis rand ~dim ~near_triangular ~slack_frac in
      let lu = Lp.Lu.factor ~dim cols in
      let b = Array.init dim (fun _ -> signed rand 0. 4.) in
      let c = Array.init dim (fun _ -> signed rand 0. 4.) in
      let x = Lp.Lu.solve lu b and y = Lp.Lu.solve_transpose lu c in
      residual_small ~apply:(dense_mul cols) ~x ~b
      && residual_small ~apply:(dense_mul_t cols) ~x:y ~b:c)

(* Structurally singular: one column or one row of a random nonsingular
   basis is emptied, or two columns are confined to a single row. *)
let singular_raises =
  QCheck.Test.make ~name:"structurally singular bases raise Singular" ~count:200
    QCheck.(pair basis_gen (int_range 0 2))
    (fun ((seed, dim, near_triangular, slack_frac), mode) ->
      let dim = Int.max dim 2 in
      let rand = Random.State.make [| seed |] in
      let cols = random_basis rand ~dim ~near_triangular ~slack_frac in
      let victim = Random.State.int rand dim in
      let cols =
        match mode with
        | 0 -> Array.mapi (fun j c -> if j = victim then Lp.Sparse_vec.empty else c) cols
        | 1 ->
            Array.map
              (fun c ->
                Lp.Sparse_vec.of_assoc
                  (List.filter (fun (i, _) -> i <> victim) (Lp.Sparse_vec.to_assoc c)))
              cols
        | _ ->
            let other = (victim + 1 + Random.State.int rand (dim - 1)) mod dim in
            let row = Random.State.int rand dim in
            Array.mapi
              (fun j c ->
                if j = victim then Lp.Sparse_vec.of_assoc [ (row, 2.) ]
                else if j = other then Lp.Sparse_vec.of_assoc [ (row, -0.5) ]
                else c)
              cols
      in
      match Lp.Lu.factor ~dim cols with
      | _ -> false
      | exception Lp.Lu.Singular _ -> true)

let () =
  Alcotest.run "lu"
    [
      ( "golden",
        [
          Alcotest.test_case "reference basis" `Quick test_reference_golden;
          Alcotest.test_case "markowitz basis" `Quick test_markowitz_golden;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ random_residuals; singular_raises ]);
    ]
