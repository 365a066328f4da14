(* Tests for the LP substrate: sparse vectors, the sparse LU
   factorization, the dense reference simplex, and the revised simplex
   (including a randomized cross-check between the two solvers). *)

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Sparse_vec ---------- *)

let test_vec_of_assoc () =
  let v = Lp.Sparse_vec.of_assoc [ (3, 1.); (1, 2.); (3, 4.); (0, 0.) ] in
  Alcotest.(check int) "nnz" 2 (Lp.Sparse_vec.nnz v);
  check_float "dup summed" 5. (Lp.Sparse_vec.get v 3);
  check_float "kept" 2. (Lp.Sparse_vec.get v 1);
  check_float "absent" 0. (Lp.Sparse_vec.get v 2)

let test_vec_cancel () =
  let v = Lp.Sparse_vec.of_assoc [ (2, 1.5); (2, -1.5) ] in
  Alcotest.(check int) "cancelled entries dropped" 0 (Lp.Sparse_vec.nnz v)

let test_vec_dot_axpy () =
  let v = Lp.Sparse_vec.of_assoc [ (0, 2.); (3, -1.) ] in
  let d = [| 1.; 10.; 10.; 4. |] in
  check_float "dot" (2. -. 4.) (Lp.Sparse_vec.dot_dense v d);
  Lp.Sparse_vec.axpy_dense 2. v d;
  check_float "axpy idx0" 5. d.(0);
  check_float "axpy idx3" 2. d.(3);
  check_float "axpy untouched" 10. d.(1)

let test_vec_negative_index () =
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Sparse_vec.of_assoc: negative index") (fun () ->
      ignore (Lp.Sparse_vec.of_assoc [ (-1, 1.) ]))

let test_vec_of_arrays_unsorted () =
  Alcotest.check_raises "unsorted rejected"
    (Invalid_argument "Sparse_vec.of_arrays: indices not strictly increasing")
    (fun () -> ignore (Lp.Sparse_vec.of_arrays [| 2; 1 |] [| 1.; 1. |]))

let test_vec_max_abs_scale () =
  let v = Lp.Sparse_vec.of_assoc [ (1, -3.); (2, 2.) ] in
  check_float "max_abs" 3. (Lp.Sparse_vec.max_abs v);
  let w = Lp.Sparse_vec.scale (-2.) v in
  check_float "scaled" 6. (Lp.Sparse_vec.get w 1);
  check_float "empty max_abs" 0. (Lp.Sparse_vec.max_abs Lp.Sparse_vec.empty)

(* ---------- Lu ---------- *)

let dense_of_cols dim cols =
  let a = Array.make_matrix dim dim 0. in
  Array.iteri (fun c v -> Lp.Sparse_vec.iter (fun r x -> a.(r).(c) <- x) v) cols;
  a

let mat_vec a x =
  Array.map (fun row -> Array.fold_left ( +. ) 0. (Array.mapi (fun j v -> v *. x.(j)) row)) a

let mat_transpose_vec a y =
  let n = Array.length a in
  Array.init n (fun j ->
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. (a.(i).(j) *. y.(i))
      done;
      !acc)

let max_abs_diff u v =
  let m = ref 0. in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. v.(i)))) u;
  !m

let random_nonsingular_cols rand dim =
  (* Diagonal dominance guarantees nonsingularity. *)
  Array.init dim (fun c ->
      let entries = ref [ (c, 4. +. Random.State.float rand 4.) ] in
      for _ = 1 to 3 do
        let r = Random.State.int rand dim in
        if r <> c then
          entries := (r, Random.State.float rand 1.6 -. 0.8) :: !entries
      done;
      Lp.Sparse_vec.of_assoc !entries)

let test_lu_identity () =
  let dim = 5 in
  let cols = Array.init dim (fun c -> Lp.Sparse_vec.of_assoc [ (c, 1.) ]) in
  let lu = Lp.Lu.factor ~dim cols in
  let b = [| 1.; -2.; 3.; 0.; 5. |] in
  Alcotest.(check (float 1e-12)) "identity solve" 0.
    (max_abs_diff (Lp.Lu.solve lu b) b);
  Alcotest.(check (float 1e-12)) "identity transpose" 0.
    (max_abs_diff (Lp.Lu.solve_transpose lu b) b)

let test_lu_permutation () =
  let dim = 4 in
  let perm = [| 2; 0; 3; 1 |] in
  let cols =
    Array.init dim (fun c -> Lp.Sparse_vec.of_assoc [ (perm.(c), 1.) ])
  in
  let lu = Lp.Lu.factor ~dim cols in
  let b = [| 1.; 2.; 3.; 4. |] in
  let x = Lp.Lu.solve lu b in
  (* column c has a 1 in row perm.(c), so x.(c) = b.(perm.(c)) *)
  Array.iteri
    (fun c p -> check_float "permuted solve" b.(p) x.(c))
    perm

let test_lu_random () =
  let rand = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    let dim = 1 + Random.State.int rand 40 in
    let cols = random_nonsingular_cols rand dim in
    let a = dense_of_cols dim cols in
    let lu = Lp.Lu.factor ~dim cols in
    let b = Array.init dim (fun _ -> Random.State.float rand 10. -. 5.) in
    let x = Lp.Lu.solve lu b in
    Alcotest.(check (float 1e-7)) "residual A x = b" 0.
      (max_abs_diff (mat_vec a x) b);
    let y = Lp.Lu.solve_transpose lu b in
    Alcotest.(check (float 1e-7)) "residual A' y = b" 0.
      (max_abs_diff (mat_transpose_vec a y) b)
  done

let test_lu_singular () =
  let dim = 3 in
  (* Column 2 equals column 0: singular. *)
  let col = Lp.Sparse_vec.of_assoc [ (0, 1.); (1, 2.) ] in
  let cols = [| col; Lp.Sparse_vec.of_assoc [ (2, 1.) ]; col |] in
  (try
     ignore (Lp.Lu.factor ~dim cols);
     Alcotest.fail "expected Singular"
   with Lp.Lu.Singular _ -> ())

let test_lu_fill_nnz () =
  let dim = 3 in
  let cols = Array.init dim (fun c -> Lp.Sparse_vec.of_assoc [ (c, 2.) ]) in
  let lu = Lp.Lu.factor ~dim cols in
  Alcotest.(check int) "diagonal factors have no fill" 3 (Lp.Lu.fill_nnz lu)

(* ---------- Dense_simplex ---------- *)

let test_dense_basic_max () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2,6), obj 36 *)
  let r =
    Lp.Dense_simplex.solve ~maximize:true ~obj:[| 3.; 5. |]
      ~constraints:
        [|
          ([| 1.; 0. |], Lp.Dense_simplex.Le, 4.);
          ([| 0.; 2. |], Lp.Dense_simplex.Le, 12.);
          ([| 3.; 2. |], Lp.Dense_simplex.Le, 18.);
        |]
      ()
  in
  Alcotest.(check bool) "optimal" true (r.Lp.Dense_simplex.status = Lp.Dense_simplex.Optimal);
  check_float "objective" 36. r.Lp.Dense_simplex.objective;
  check_float "x" 2. r.Lp.Dense_simplex.x.(0);
  check_float "y" 6. r.Lp.Dense_simplex.x.(1)

let test_dense_min_with_ge () =
  (* min 2x + 3y st x + y >= 4, x >= 1 -> (4,0)? obj: 2*4=8 vs (1,3): 2+9=11.
     So optimum (4,0) obj 8. *)
  let r =
    Lp.Dense_simplex.solve ~obj:[| 2.; 3. |]
      ~constraints:
        [|
          ([| 1.; 1. |], Lp.Dense_simplex.Ge, 4.);
          ([| 1.; 0. |], Lp.Dense_simplex.Ge, 1.);
        |]
      ()
  in
  Alcotest.(check bool) "optimal" true (r.Lp.Dense_simplex.status = Lp.Dense_simplex.Optimal);
  check_float "objective" 8. r.Lp.Dense_simplex.objective

let test_dense_eq () =
  (* min x + y st x + 2y = 4, x - y = 1 -> x = 2, y = 1, obj 3 *)
  let r =
    Lp.Dense_simplex.solve ~obj:[| 1.; 1. |]
      ~constraints:
        [|
          ([| 1.; 2. |], Lp.Dense_simplex.Eq, 4.);
          ([| 1.; -1. |], Lp.Dense_simplex.Eq, 1.);
        |]
      ()
  in
  check_float "objective" 3. r.Lp.Dense_simplex.objective;
  check_float "x" 2. r.Lp.Dense_simplex.x.(0);
  check_float "y" 1. r.Lp.Dense_simplex.x.(1)

let test_dense_infeasible () =
  let r =
    Lp.Dense_simplex.solve ~obj:[| 1. |]
      ~constraints:
        [|
          ([| 1. |], Lp.Dense_simplex.Le, 1.);
          ([| 1. |], Lp.Dense_simplex.Ge, 2.);
        |]
      ()
  in
  Alcotest.(check bool) "infeasible" true
    (r.Lp.Dense_simplex.status = Lp.Dense_simplex.Infeasible)

let test_dense_unbounded () =
  let r =
    Lp.Dense_simplex.solve ~maximize:true ~obj:[| 1.; 0. |]
      ~constraints:[| ([| 0.; 1. |], Lp.Dense_simplex.Le, 1.) |]
      ()
  in
  Alcotest.(check bool) "unbounded" true
    (r.Lp.Dense_simplex.status = Lp.Dense_simplex.Unbounded)

let test_dense_degenerate () =
  (* Classic degenerate LP; Bland's rule must terminate. *)
  let r =
    Lp.Dense_simplex.solve ~maximize:true
      ~obj:[| 10.; -57.; -9.; -24. |]
      ~constraints:
        [|
          ([| 0.5; -5.5; -2.5; 9. |], Lp.Dense_simplex.Le, 0.);
          ([| 0.5; -1.5; -0.5; 1. |], Lp.Dense_simplex.Le, 0.);
          ([| 1.; 0.; 0.; 0. |], Lp.Dense_simplex.Le, 1.);
        |]
      ()
  in
  Alcotest.(check bool) "optimal" true (r.Lp.Dense_simplex.status = Lp.Dense_simplex.Optimal);
  check_float "objective" 1. r.Lp.Dense_simplex.objective

(* ---------- Model + Revised ---------- *)

let test_model_basic_max () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~obj:3. "x" in
  let y = Lp.Model.add_var m ~obj:5. "y" in
  Lp.Model.add_le m [ (1., x) ] 4.;
  Lp.Model.add_le m [ (2., y) ] 12.;
  Lp.Model.add_le m [ (3., x); (2., y) ] 18.;
  let sol = Lp.Model.solve m in
  Alcotest.(check bool) "optimal" true (sol.Lp.Model.status = Lp.Model.Optimal);
  check_float "objective" 36. sol.Lp.Model.objective;
  check_float "x" 2. (Lp.Model.value sol x);
  check_float "y" 6. (Lp.Model.value sol y)

let test_model_bounds () =
  (* max x + y with 1 <= x <= 3, 0 <= y <= 2, x + y <= 4 -> obj 4 at e.g. (2,2) *)
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~lower:1. ~upper:3. ~obj:1. "x" in
  let y = Lp.Model.add_var m ~upper:2. ~obj:1. "y" in
  Lp.Model.add_le m [ (1., x); (1., y) ] 4.;
  let sol = Lp.Model.solve m in
  check_float "objective" 4. sol.Lp.Model.objective;
  Alcotest.(check bool) "x within bounds" true
    (Lp.Model.value sol x >= 1. -. 1e-9 && Lp.Model.value sol x <= 3. +. 1e-9)

let test_model_free_var () =
  (* min x st x >= -5 as a row, x free -> x = -5 *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lower:neg_infinity ~obj:1. "x" in
  Lp.Model.add_ge m [ (1., x) ] (-5.);
  let sol = Lp.Model.solve m in
  check_float "objective" (-5.) sol.Lp.Model.objective

let test_model_fixed_var () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~lower:2. ~upper:2. ~obj:1. "x" in
  let y = Lp.Model.add_var m ~upper:10. ~obj:1. "y" in
  Lp.Model.add_le m [ (1., x); (1., y) ] 5.;
  let sol = Lp.Model.solve m in
  check_float "objective" 5. sol.Lp.Model.objective;
  check_float "fixed var" 2. (Lp.Model.value sol x)

let test_model_infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m "x" in
  Lp.Model.add_le m [ (1., x) ] 1.;
  Lp.Model.add_ge m [ (1., x) ] 2.;
  let sol = Lp.Model.solve m in
  Alcotest.(check bool) "infeasible" true (sol.Lp.Model.status = Lp.Model.Infeasible)

let test_model_unbounded () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~obj:1. "x" in
  let y = Lp.Model.add_var m "y" in
  ignore x;
  Lp.Model.add_le m [ (1., y) ] 1.;
  let sol = Lp.Model.solve m in
  Alcotest.(check bool) "unbounded" true (sol.Lp.Model.status = Lp.Model.Unbounded)

let test_model_negative_rhs () =
  (* Rows with negative rhs exercise phase 1 in the revised solver:
     min x + y st -x - y <= -3 (i.e. x + y >= 3) *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~obj:1. "x" in
  let y = Lp.Model.add_var m ~obj:1. "y" in
  Lp.Model.add_le m [ (-1., x); (-1., y) ] (-3.);
  let sol = Lp.Model.solve m in
  Alcotest.(check bool) "optimal" true (sol.Lp.Model.status = Lp.Model.Optimal);
  check_float "objective" 3. sol.Lp.Model.objective

let test_model_eq_rows () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~obj:1. "x" in
  let y = Lp.Model.add_var m ~obj:1. "y" in
  Lp.Model.add_eq m [ (1., x); (2., y) ] 4.;
  Lp.Model.add_eq m [ (1., x); (-1., y) ] 1.;
  let sol = Lp.Model.solve m in
  check_float "objective" 3. sol.Lp.Model.objective;
  check_float "x" 2. (Lp.Model.value sol x)

let test_model_resolve_after_adding () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~obj:1. ~upper:10. "x" in
  let sol1 = Lp.Model.solve m in
  check_float "first solve" 10. sol1.Lp.Model.objective;
  Lp.Model.add_le m [ (1., x) ] 7.;
  let sol2 = Lp.Model.solve m in
  check_float "second solve" 7. sol2.Lp.Model.objective

(* Randomized cross-check: the revised solver agrees with the dense
   reference on status and objective for random bounded LPs. *)
let random_lp_agrees =
  let gen =
    QCheck.make ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
      QCheck.Gen.(0 -- 100_000)
  in
  QCheck.Test.make ~name:"revised simplex agrees with dense reference"
    ~count:300 gen (fun seed ->
      let rand = Random.State.make [| seed |] in
      let nvars = 1 + Random.State.int rand 7 in
      let nrows = 1 + Random.State.int rand 7 in
      let dir =
        if Random.State.bool rand then Lp.Model.Maximize else Lp.Model.Minimize
      in
      let m = Lp.Model.create ~direction:dir () in
      let vars =
        Array.init nvars (fun i ->
            (* Finite upper bounds keep the LP bounded, so statuses are
               either Optimal or Infeasible. *)
            Lp.Model.add_var m
              ~upper:(float_of_int (1 + Random.State.int rand 10))
              ~obj:(Random.State.float rand 8. -. 4.)
              (Printf.sprintf "x%d" i))
      in
      for _ = 1 to nrows do
        let terms = ref [] in
        for v = 0 to nvars - 1 do
          if Random.State.float rand 1. < 0.6 then
            terms :=
              (Random.State.float rand 6. -. 3., vars.(v)) :: !terms
        done;
        let rhs = Random.State.float rand 12. -. 2. in
        match Random.State.int rand 3 with
        | 0 -> Lp.Model.add_le m !terms rhs
        | 1 -> Lp.Model.add_ge m !terms (rhs -. 6.)
        | _ -> if !terms <> [] then Lp.Model.add_le m !terms rhs
      done;
      let sol_r = Lp.Model.solve m in
      let sol_d = fst (Lp.Model.solve_dense_certified m) in
      match (sol_r.Lp.Model.status, sol_d.Lp.Model.status) with
      | Lp.Model.Optimal, Lp.Model.Optimal ->
          Float.abs (sol_r.Lp.Model.objective -. sol_d.Lp.Model.objective)
          <= 1e-5 *. (1. +. Float.abs sol_d.Lp.Model.objective)
      | Lp.Model.Infeasible, Lp.Model.Infeasible -> true
      | _, _ -> false)

(* Random LPs: the revised solution is primal-feasible for the lowered
   problem (checked against the model rows directly). *)
let random_lp_feasible =
  let gen = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000) in
  QCheck.Test.make ~name:"revised solutions satisfy all constraints"
    ~count:300 gen (fun seed ->
      let rand = Random.State.make [| seed + 7_777 |] in
      let nvars = 1 + Random.State.int rand 10 in
      let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
      let vars =
        Array.init nvars (fun i ->
            Lp.Model.add_var m ~upper:5. ~obj:(Random.State.float rand 2.)
              (Printf.sprintf "x%d" i))
      in
      let rows = ref [] in
      for _ = 1 to 1 + Random.State.int rand 10 do
        let terms =
          Array.to_list vars
          |> List.filter_map (fun v ->
                 if Random.State.float rand 1. < 0.5 then
                   Some (Random.State.float rand 4., v)
                 else None)
        in
        let rhs = Random.State.float rand 10. in
        Lp.Model.add_le m terms rhs;
        rows := (terms, rhs) :: !rows
      done;
      let sol = Lp.Model.solve m in
      match sol.Lp.Model.status with
      | Lp.Model.Optimal ->
          List.for_all
            (fun (terms, rhs) ->
              let lhs =
                List.fold_left
                  (fun acc (c, v) -> acc +. (c *. Lp.Model.value sol v))
                  0. terms
              in
              lhs <= rhs +. 1e-6)
            !rows
          && Array.for_all
               (fun v ->
                 let x = Lp.Model.value sol v in
                 x >= -1e-6 && x <= 5. +. 1e-6)
               vars
      | _ -> false)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ random_lp_agrees; random_lp_feasible ]

let () =
  Alcotest.run "lp"
    [
      ( "sparse_vec",
        [
          Alcotest.test_case "of_assoc dedups and sorts" `Quick test_vec_of_assoc;
          Alcotest.test_case "cancelling entries drop" `Quick test_vec_cancel;
          Alcotest.test_case "dot and axpy" `Quick test_vec_dot_axpy;
          Alcotest.test_case "negative index rejected" `Quick test_vec_negative_index;
          Alcotest.test_case "of_arrays checks order" `Quick test_vec_of_arrays_unsorted;
          Alcotest.test_case "max_abs and scale" `Quick test_vec_max_abs_scale;
        ] );
      ( "lu",
        [
          Alcotest.test_case "identity" `Quick test_lu_identity;
          Alcotest.test_case "permutation" `Quick test_lu_permutation;
          Alcotest.test_case "random systems solve" `Quick test_lu_random;
          Alcotest.test_case "singular detected" `Quick test_lu_singular;
          Alcotest.test_case "fill accounting" `Quick test_lu_fill_nnz;
        ] );
      ( "dense_simplex",
        [
          Alcotest.test_case "textbook max" `Quick test_dense_basic_max;
          Alcotest.test_case "min with >=" `Quick test_dense_min_with_ge;
          Alcotest.test_case "equality rows" `Quick test_dense_eq;
          Alcotest.test_case "infeasible" `Quick test_dense_infeasible;
          Alcotest.test_case "unbounded" `Quick test_dense_unbounded;
          Alcotest.test_case "degenerate (Bland terminates)" `Quick test_dense_degenerate;
        ] );
      ( "model_revised",
        [
          Alcotest.test_case "textbook max" `Quick test_model_basic_max;
          Alcotest.test_case "variable bounds" `Quick test_model_bounds;
          Alcotest.test_case "free variable" `Quick test_model_free_var;
          Alcotest.test_case "fixed variable" `Quick test_model_fixed_var;
          Alcotest.test_case "infeasible" `Quick test_model_infeasible;
          Alcotest.test_case "unbounded" `Quick test_model_unbounded;
          Alcotest.test_case "negative rhs (phase 1)" `Quick test_model_negative_rhs;
          Alcotest.test_case "equality rows" `Quick test_model_eq_rows;
          Alcotest.test_case "incremental re-solve" `Quick test_model_resolve_after_adding;
        ] );
      ("properties", qcheck_cases);
    ]
