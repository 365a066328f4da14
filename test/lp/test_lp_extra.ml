(* Deeper LP-solver validation: problem validation, duality, degeneracy,
   larger randomized instances, and LU edge cases. *)

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Problem validation ---------- *)

let base_problem () =
  {
    Lp.Problem.nrows = 1;
    ncols = 2;
    cols =
      [| Lp.Sparse_vec.of_assoc [ (0, 1.) ]; Lp.Sparse_vec.of_assoc [ (0, 1.) ] |];
    obj = [| 1.; 0. |];
    lower = [| 0.; 0. |];
    upper = [| 1.; infinity |];
    rhs = [| 1. |];
    basis_hint = None;
  }

let test_validate_ok () = Lp.Problem.validate (base_problem ())

let test_validate_bad_lengths () =
  let p = { (base_problem ()) with obj = [| 1. |] } in
  (try
     Lp.Problem.validate p;
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_validate_row_out_of_range () =
  let p =
    {
      (base_problem ()) with
      cols =
        [|
          Lp.Sparse_vec.of_assoc [ (5, 1.) ]; Lp.Sparse_vec.of_assoc [ (0, 1.) ];
        |];
    }
  in
  (try
     Lp.Problem.validate p;
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_validate_bound_order () =
  let p = { (base_problem ()) with lower = [| 2.; 0. |] } in
  (try
     Lp.Problem.validate p;
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_validate_bad_hint () =
  (* Column 0 is a unit vector but the hint points at a non-unit column. *)
  let p =
    {
      (base_problem ()) with
      cols =
        [|
          Lp.Sparse_vec.of_assoc [ (0, 2.) ]; Lp.Sparse_vec.of_assoc [ (0, 1.) ];
        |];
      basis_hint = Some [| 0 |];
    }
  in
  (try
     Lp.Problem.validate p;
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

(* Every rejection of [Problem.validate], with its exact message.  Each
   case breaks one field of the sane two-column problem above (or builds
   the smallest problem that reaches the check). *)
let validate_messages =
  let sv = Lp.Sparse_vec.of_assoc and raw = Lp.Sparse_vec.of_arrays in
  let base = base_problem () in
  [
    ( "negative dimensions",
      false,
      { base with nrows = -1 },
      "Problem: negative dimensions" );
    ("cols length", false, { base with cols = [| sv [ (0, 1.) ] |] }, "Problem: cols length");
    ("obj length", false, { base with obj = [| 1. |] }, "Problem: obj length");
    ("lower length", false, { base with lower = [| 0. |] }, "Problem: lower length");
    ("upper length", false, { base with upper = [||] }, "Problem: upper length");
    ("rhs length", false, { base with rhs = [| 1.; 2. |] }, "Problem: rhs length");
    ( "row index >= nrows",
      false,
      { base with cols = [| sv [ (0, 1.) ]; sv [ (0, 2.); (3, 1.) ] |] },
      "Problem: column 1 has row index 3 >= nrows 1" );
    ( "non-finite coefficient",
      false,
      { base with cols = [| sv [ (0, 1.) ]; raw [| 0 |] [| Float.nan |] |] },
      "Problem: column 1 has non-finite coefficient nan at row 0" );
    ( "infinite coefficient",
      false,
      { base with cols = [| sv [ (0, Float.neg_infinity) ]; sv [ (0, 1.) ] |] },
      "Problem: column 0 has non-finite coefficient -inf at row 0" );
    ( "strict empty column",
      true,
      { base with cols = [| sv [ (0, 1.) ]; Lp.Sparse_vec.empty |] },
      "Problem: column 1 is empty (appears in no constraint)" );
    ( "NaN bound",
      false,
      { base with upper = [| 1.; Float.nan |] },
      "Problem: NaN bound on column 1" );
    ( "lower > upper",
      false,
      { base with lower = [| 2.5; 0. |] },
      "Problem: column 0 has lower bound 2.5 > upper bound 1" );
    ( "lower bound +inf",
      false,
      { base with lower = [| 0.; infinity |] },
      "Problem: column 1 has lower bound +inf" );
    ( "upper bound -inf",
      false,
      { base with lower = [| neg_infinity; 0. |]; upper = [| neg_infinity; 1. |] },
      "Problem: column 0 has upper bound -inf" );
    ( "non-finite objective",
      false,
      { base with obj = [| 1.; infinity |] },
      "Problem: column 1 has non-finite objective coefficient inf" );
    ( "non-finite rhs",
      false,
      { base with rhs = [| Float.nan |] },
      "Problem: row 0 has non-finite rhs nan" );
    ( "basis_hint length",
      false,
      { base with basis_hint = Some [| 0; 1 |] },
      "Problem: basis_hint length" );
    ( "basis_hint column out of range",
      false,
      { base with basis_hint = Some [| 2 |] },
      "Problem: basis_hint column out of range" );
    ( "basis_hint column not a unit vector",
      false,
      {
        base with
        nrows = 2;
        rhs = [| 1.; 1. |];
        cols = [| sv [ (0, 1.); (1, 1.) ]; sv [ (1, 1.) ] |];
        basis_hint = Some [| 0; 1 |];
      },
      "Problem: basis_hint column not a unit vector" );
    ( "basis_hint column not e_i",
      false,
      { base with cols = [| sv [ (0, 2.) ]; sv [ (0, 1.) ] |]; basis_hint = Some [| 0 |] },
      "Problem: basis_hint column not e_i" );
  ]

let validate_message_cases =
  List.map
    (fun (name, strict, p, want) ->
      Alcotest.test_case ("message: " ^ name) `Quick (fun () ->
          match Lp.Problem.validate ~strict p with
          | () -> Alcotest.failf "%s: accepted" name
          | exception Invalid_argument got -> Alcotest.(check string) name want got))
    validate_messages

let test_problem_helpers () =
  let p = base_problem () in
  let x = [| 0.25; 0.5 |] in
  check_float "activity" 0.75 (Lp.Problem.activity p x).(0);
  check_float "objective" 0.25 (Lp.Problem.objective_value p x);
  check_float "violation" 0.25 (Lp.Problem.max_constraint_violation p x);
  check_float "feasible point" 0.
    (Lp.Problem.max_constraint_violation p [| 0.5; 0.5 |])

(* ---------- Revised solver internals via Model ---------- *)

let test_revised_degenerate_terminates () =
  (* Beale's classic cycling example (degenerate under naive pivoting). *)
  let m = Lp.Model.create () in
  let x1 = Lp.Model.add_var m ~obj:(-0.75) "x1" in
  let x2 = Lp.Model.add_var m ~obj:150. "x2" in
  let x3 = Lp.Model.add_var m ~obj:(-0.02) "x3" in
  let x4 = Lp.Model.add_var m ~obj:6. "x4" in
  Lp.Model.add_le m [ (0.25, x1); (-60., x2); (-0.04, x3); (9., x4) ] 0.;
  Lp.Model.add_le m [ (0.5, x1); (-90., x2); (-0.02, x3); (3., x4) ] 0.;
  Lp.Model.add_le m [ (1., x3) ] 1.;
  let sol = Lp.Model.solve m in
  Alcotest.(check bool) "optimal" true (sol.Lp.Model.status = Lp.Model.Optimal);
  check_float "objective" (-0.05) sol.Lp.Model.objective

let test_revised_duals_strong_duality () =
  (* On a pure <=-form LP with x >= 0, strong duality reads
     c'x = y'b at the optimum (y are the row duals). *)
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~obj:3. "x" in
  let y = Lp.Model.add_var m ~obj:5. "y" in
  Lp.Model.add_le m [ (1., x) ] 4.;
  Lp.Model.add_le m [ (2., y) ] 12.;
  Lp.Model.add_le m [ (3., x); (2., y) ] 18.;
  let sol = Lp.Model.solve m in
  match sol.Lp.Model.stats with
  | None -> Alcotest.fail "expected revised stats"
  | Some _ ->
      Alcotest.(check bool) "optimal" true (sol.Lp.Model.status = Lp.Model.Optimal);
      check_float "primal objective" 36. sol.Lp.Model.objective

let test_iteration_limit_status () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let vars =
    List.init 12 (fun i -> Lp.Model.add_var m ~obj:(1. +. float_of_int i) ~upper:10. (Printf.sprintf "x%d" i))
  in
  List.iteri
    (fun i v ->
      List.iteri
        (fun j w -> if j > i then Lp.Model.add_le m [ (1., v); (1., w) ] 12.)
        vars)
    vars;
  let sol = Lp.Model.solve ~max_iterations:1 m in
  Alcotest.(check bool) "iteration limit reported" true
    (sol.Lp.Model.status = Lp.Model.Iteration_limit)

let test_negative_lower_bounds () =
  (* min x + y with x in [-5, -1], y >= x + 3 -> x = -5, y = -2, obj -7. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lower:(-5.) ~upper:(-1.) ~obj:1. "x" in
  let y = Lp.Model.add_var m ~lower:neg_infinity ~obj:1. "y" in
  Lp.Model.add_ge m [ (1., y); (-1., x) ] 3.;
  let sol = Lp.Model.solve m in
  check_float "objective" (-7.) sol.Lp.Model.objective;
  check_float "x at lower" (-5.) (Lp.Model.value sol x);
  check_float "y follows" (-2.) (Lp.Model.value sol y)

let test_model_var_names () =
  let m = Lp.Model.create () in
  let a = Lp.Model.add_var m "alpha" in
  let b = Lp.Model.add_var m "beta" in
  Alcotest.(check string) "first name" "alpha" (Lp.Model.var_name m a);
  Alcotest.(check string) "second name" "beta" (Lp.Model.var_name m b);
  Alcotest.(check int) "indices" 1 (Lp.Model.var_index b)

let test_model_set_obj () =
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~upper:2. "x" in
  Lp.Model.set_obj m x 5.;
  let sol = Lp.Model.solve m in
  check_float "updated objective used" 10. sol.Lp.Model.objective

let test_model_rejects_foreign_var () =
  let m1 = Lp.Model.create () in
  let m2 = Lp.Model.create () in
  let x = Lp.Model.add_var m1 "x" in
  ignore (Lp.Model.add_var m2 "y");
  ignore x;
  (* Constraint mentioning a var id beyond m2's count must be rejected. *)
  let z = Lp.Model.add_var m1 "z" in
  try
    Lp.Model.add_le m2 [ (1., z) ] 1.;
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

(* ---------- Larger randomized agreement ---------- *)

let bigger_random_agreement =
  QCheck.Test.make ~name:"revised = dense on larger random LPs" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed + 31337 |] in
      let nvars = 10 + Random.State.int rand 15 in
      let nrows = 10 + Random.State.int rand 15 in
      let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
      let vars =
        Array.init nvars (fun i ->
            Lp.Model.add_var m ~upper:8.
              ~obj:(Random.State.float rand 5. -. 1.)
              (Printf.sprintf "x%d" i))
      in
      for _ = 1 to nrows do
        let terms = ref [] in
        Array.iter
          (fun v ->
            if Random.State.float rand 1. < 0.3 then
              terms := (Random.State.float rand 4. -. 1., v) :: !terms)
          vars;
        Lp.Model.add_le m !terms (Random.State.float rand 20.)
      done;
      let a = Lp.Model.solve m in
      let b = fst (Lp.Model.solve_dense_certified m) in
      match (a.Lp.Model.status, b.Lp.Model.status) with
      | Lp.Model.Optimal, Lp.Model.Optimal ->
          Float.abs (a.Lp.Model.objective -. b.Lp.Model.objective)
          <= 1e-5 *. (1. +. Float.abs b.Lp.Model.objective)
      | sa, sb -> Lp.Model.status_equal sa sb)

let equality_rows_agreement =
  QCheck.Test.make ~name:"revised = dense with equality rows" ~count:100
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed + 99 |] in
      let nvars = 3 + Random.State.int rand 6 in
      let m = Lp.Model.create () in
      let vars =
        Array.init nvars (fun i ->
            Lp.Model.add_var m ~upper:6.
              ~obj:(Random.State.float rand 4. -. 2.)
              (Printf.sprintf "x%d" i))
      in
      (* One equality over all vars keeps feasibility likely. *)
      Lp.Model.add_eq m
        (Array.to_list (Array.map (fun v -> (1., v)) vars))
        (float_of_int nvars);
      for _ = 1 to 1 + Random.State.int rand 4 do
        let terms = ref [] in
        Array.iter
          (fun v ->
            if Random.State.float rand 1. < 0.5 then
              terms := (Random.State.float rand 3., v) :: !terms)
          vars;
        Lp.Model.add_le m !terms (2. +. Random.State.float rand 15.)
      done;
      let a = Lp.Model.solve m in
      let b = fst (Lp.Model.solve_dense_certified m) in
      match (a.Lp.Model.status, b.Lp.Model.status) with
      | Lp.Model.Optimal, Lp.Model.Optimal ->
          Float.abs (a.Lp.Model.objective -. b.Lp.Model.objective)
          <= 1e-5 *. (1. +. Float.abs b.Lp.Model.objective)
      | sa, sb -> Lp.Model.status_equal sa sb)

(* ---------- LU extras ---------- *)

let test_lu_dense_block () =
  (* A fully dense 12x12 system exercises Markowitz fallback (no
     singletons after the first pivots). *)
  let dim = 12 in
  let rand = Random.State.make [| 5 |] in
  let a = Array.init dim (fun _ -> Array.init dim (fun _ -> Random.State.float rand 2. -. 1.)) in
  for i = 0 to dim - 1 do
    a.(i).(i) <- a.(i).(i) +. 10.  (* diagonal dominance *)
  done;
  let cols =
    Array.init dim (fun c ->
        Lp.Sparse_vec.of_assoc (List.init dim (fun r -> (r, a.(r).(c)))))
  in
  let lu = Lp.Lu.factor ~dim cols in
  let b = Array.init dim (fun i -> float_of_int (i + 1)) in
  let x = Lp.Lu.solve lu b in
  (* Verify residual directly. *)
  let max_resid = ref 0. in
  for r = 0 to dim - 1 do
    let acc = ref 0. in
    for c = 0 to dim - 1 do
      acc := !acc +. (a.(r).(c) *. x.(c))
    done;
    max_resid := Float.max !max_resid (Float.abs (!acc -. b.(r)))
  done;
  Alcotest.(check (float 1e-8)) "dense block residual" 0. !max_resid

let test_lu_1x1 () =
  let lu = Lp.Lu.factor ~dim:1 [| Lp.Sparse_vec.of_assoc [ (0, -4.) ] |] in
  check_float "trivial solve" (-0.5) (Lp.Lu.solve lu [| 2. |]).(0)

let test_lu_zero_matrix_singular () =
  (try
     ignore (Lp.Lu.factor ~dim:2 [| Lp.Sparse_vec.empty; Lp.Sparse_vec.empty |]);
     Alcotest.fail "expected Singular"
   with Lp.Lu.Singular _ -> ())

let lu_transpose_consistency =
  (* For random B, b, c:  c . (B^-1 b)  =  (B^-T c) . b. *)
  QCheck.Test.make ~name:"LU solve/transpose adjoint identity" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed + 4242 |] in
      let dim = 1 + Random.State.int rand 30 in
      let cols =
        Array.init dim (fun c ->
            let entries = ref [ (c, 5. +. Random.State.float rand 3.) ] in
            for _ = 1 to 2 do
              let r = Random.State.int rand dim in
              if r <> c then entries := (r, Random.State.float rand 2. -. 1.) :: !entries
            done;
            Lp.Sparse_vec.of_assoc !entries)
      in
      let lu = Lp.Lu.factor ~dim cols in
      let b = Array.init dim (fun _ -> Random.State.float rand 4. -. 2.) in
      let c = Array.init dim (fun _ -> Random.State.float rand 4. -. 2.) in
      let x = Lp.Lu.solve lu b in
      let y = Lp.Lu.solve_transpose lu c in
      let dot u v =
        let acc = ref 0. in
        Array.iteri (fun i ui -> acc := !acc +. (ui *. v.(i))) u;
        !acc
      in
      Float.abs (dot c x -. dot y b) <= 1e-6 *. (1. +. Float.abs (dot c x)))

(* [Model.to_problem] must lower each column to exactly what
   [Sparse_vec.of_assoc] makes of the column's (row, coeff) entries:
   duplicates summed in the same order, exact zeros and sums of magnitude
   at most 1e-12 dropped.  The pool mixes repeated variables, zeros,
   order-sensitive magnitudes (1e16 + 1 - 1e16), terms that cancel to
   ~1e-17, and non-finite values. *)
let lowering_matches_of_assoc =
  let pool =
    [| 0.; 1.; -1.; 0.5; 3.; 0.1; 0.2; -0.3; 1e-13; -1e-13; 1e-12; 1e16; -1e16;
       infinity; neg_infinity; Float.nan |]
  in
  QCheck.Test.make ~name:"to_problem columns = of_assoc of their entries" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000))
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let nvars = 1 + Random.State.int rand 5 and nrows = 1 + Random.State.int rand 6 in
      let m = Lp.Model.create () in
      let vars = Array.init nvars (fun i -> Lp.Model.add_var m (Printf.sprintf "x%d" i)) in
      let rows =
        List.init nrows (fun _ ->
            List.init (Random.State.int rand 9) (fun _ ->
                let c =
                  if Random.State.int rand 4 = 0 then Random.State.float rand 2. -. 1.
                  else pool.(Random.State.int rand (Array.length pool))
                in
                (c, Random.State.int rand nvars)))
      in
      List.iter
        (fun terms -> Lp.Model.add_le m (List.map (fun (c, v) -> (c, vars.(v))) terms) 1.)
        rows;
      (* The entries each column collects: row order, and within a row the
         reverse of term order (the order [of_assoc] has always summed). *)
      let entries = Array.make (nvars + nrows) [] in
      List.iteri
        (fun i terms ->
          List.iter (fun (c, v) -> entries.(v) <- (i, c) :: entries.(v)) terms;
          entries.(nvars + i) <- [ (i, 1.) ])
        rows;
      let want = Array.map Lp.Sparse_vec.of_assoc entries in
      let got = (Lp.Model.to_problem m).Lp.Problem.cols in
      let bits = Array.map Int64.bits_of_float in
      Array.length got = Array.length want
      && Array.for_all2
           (fun (g : Lp.Sparse_vec.t) (w : Lp.Sparse_vec.t) ->
             g.idx = w.idx && bits g.value = bits w.value)
           got want)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      bigger_random_agreement;
      equality_rows_agreement;
      lu_transpose_consistency;
      lowering_matches_of_assoc;
    ]

let () =
  Alcotest.run ~and_exit:false "lp_extra"
    [
      ( "problem",
        [
          Alcotest.test_case "validate accepts sane problems" `Quick test_validate_ok;
          Alcotest.test_case "bad lengths rejected" `Quick test_validate_bad_lengths;
          Alcotest.test_case "row index out of range" `Quick test_validate_row_out_of_range;
          Alcotest.test_case "bound order checked" `Quick test_validate_bound_order;
          Alcotest.test_case "bad basis hint rejected" `Quick test_validate_bad_hint;
          Alcotest.test_case "activity/objective/violation" `Quick test_problem_helpers;
        ]
        @ validate_message_cases );
      ( "revised",
        [
          Alcotest.test_case "Beale degeneracy terminates" `Quick
            test_revised_degenerate_terminates;
          Alcotest.test_case "strong duality on textbook LP" `Quick
            test_revised_duals_strong_duality;
          Alcotest.test_case "iteration limit status" `Quick test_iteration_limit_status;
          Alcotest.test_case "negative lower bounds" `Quick test_negative_lower_bounds;
        ] );
      ( "model",
        [
          Alcotest.test_case "variable names" `Quick test_model_var_names;
          Alcotest.test_case "set_obj" `Quick test_model_set_obj;
          Alcotest.test_case "foreign variable rejected" `Quick
            test_model_rejects_foreign_var;
        ] );
      ( "lu_extra",
        [
          Alcotest.test_case "dense block" `Quick test_lu_dense_block;
          Alcotest.test_case "1x1" `Quick test_lu_1x1;
          Alcotest.test_case "zero matrix singular" `Quick test_lu_zero_matrix_singular;
        ] );
      ("properties", qcheck_cases);
    ]

(* Appended: row duals / shadow prices. *)
let test_duals_textbook () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18: the classic duals are
     (0, 3/2, 1). *)
  let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
  let x = Lp.Model.add_var m ~obj:3. "x" in
  let y = Lp.Model.add_var m ~obj:5. "y" in
  Lp.Model.add_le m [ (1., x) ] 4.;
  Lp.Model.add_le m [ (0., x); (2., y) ] 12.;
  Lp.Model.add_le m [ (3., x); (2., y) ] 18.;
  let sol = Lp.Model.solve m in
  match sol.Lp.Model.row_duals with
  | None -> Alcotest.fail "expected duals"
  | Some d ->
      Alcotest.(check (float 1e-6)) "slack row has zero price" 0. d.(0);
      Alcotest.(check (float 1e-6)) "second row" 1.5 d.(1);
      Alcotest.(check (float 1e-6)) "third row" 1. d.(2)

let duals_bound_rhs_perturbation =
  (* For a maximization LP the value function is concave in the rhs, so
     the realized gain from relaxing one row never exceeds its shadow
     price times the relaxation. *)
  QCheck.Test.make ~name:"shadow prices bound rhs perturbations" ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed + 777 |] in
      let nvars = 2 + Random.State.int rand 6 in
      let build extra_rhs =
        let m = Lp.Model.create ~direction:Lp.Model.Maximize () in
        let rand = Random.State.make [| seed + 777 |] in
        let vars =
          Array.init nvars (fun i ->
              Lp.Model.add_var m ~upper:6.
                ~obj:(Random.State.float rand 4.)
                (Printf.sprintf "x%d" i))
        in
        for r = 0 to 3 do
          let terms = ref [] in
          Array.iter
            (fun v ->
              if Random.State.float rand 1. < 0.5 then
                terms := (Random.State.float rand 3., v) :: !terms)
            vars;
          let rhs = 2. +. Random.State.float rand 10. in
          Lp.Model.add_le m !terms (if r = 0 then rhs +. extra_rhs else rhs)
        done;
        Lp.Model.solve m
      in
      let base = build 0. in
      let bumped = build 0.5 in
      match (base.Lp.Model.status, bumped.Lp.Model.status, base.Lp.Model.row_duals) with
      | Lp.Model.Optimal, Lp.Model.Optimal, Some duals ->
          bumped.Lp.Model.objective -. base.Lp.Model.objective
          <= (duals.(0) *. 0.5) +. 1e-6
          && duals.(0) >= -1e-9
      | _ -> false)

let () =
  Alcotest.run ~and_exit:true "lp_duals"
    [
      ( "duals",
        Alcotest.test_case "textbook duals" `Quick test_duals_textbook
        :: List.map QCheck_alcotest.to_alcotest [ duals_bound_rhs_perturbation ]
      );
    ]
