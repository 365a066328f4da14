(* Gaussian elimination on an array-based sparse working matrix.
   Invariants maintained during elimination:
   - row [r]'s active entries are [rcol.(r)] / [rval.(r)] over
     [0, rlen.(r)), sorted by column: the values live only here;
   - column [c]'s active rows are [crow.(c)] over [0, clen.(c)), in no
     particular order (every consumer is order-insensitive or sorts);
   - eliminated rows and columns have length 0, and no active row or
     column refers to them, so a length test alone tells active ones.
   Every choice that shapes the factors — the singleton-stack push order,
   the Markowitz scan with its strict [<] tie-break on ascending
   (column, row), and the [old -. f *. u] update order — depends only on
   these counts and sorted orders, so the pivot sequence, fill and factor
   entries are a function of the input alone. *)

(* The factorization is stored flattened into parallel arrays: the solves
   walk every step once per call, and sequential unboxed reads of the pivot
   metadata (with the per-step entry arrays dereferenced only for nonzero
   positions) beat an array of step records by a wide margin. *)
type t = {
  dim : int;
  pivot_rows : int array;
  pivot_cols : int array;
  pivot_vals : float array;
  (* Multipliers of the L factor: row_r <- row_r -. f *. row_{pivot_row},
     rows in descending order. *)
  l_rows : int array array;  (* per step *)
  l_factors : float array array;
  u_cols : int array array;  (* per step: the U row, pivot excluded *)
  u_vals : float array array;
  (* The U column pivoted at step k, as target ROW indices (pivot rows of
     the earlier steps owning each entry) — the scatter form of the
     backward/transpose solves. *)
  ucol_rows : int array array;
  ucol_vals : float array array;
}

exception Singular of int

let drop_tol = 1e-13
let abs_pivot_tol = 1e-11
let threshold = 0.01

let factor ~dim cols =
  if Array.length cols <> dim then invalid_arg "Lu.factor: column count";
  (* ---- working matrix ---- *)
  let clen = Array.map Sparse_vec.nnz cols in
  let crow = Array.map (fun (v : Sparse_vec.t) -> Array.copy v.idx) cols in
  let rlen = Array.make dim 0 in
  Array.iter (fun (v : Sparse_vec.t) -> Array.iter (fun r -> rlen.(r) <- rlen.(r) + 1) v.idx) cols;
  let rcol = Array.map (fun k -> Array.make k 0) rlen in
  let rval = Array.map (fun k -> Array.make k 0.) rlen in
  Array.fill rlen 0 dim 0;
  Array.iteri
    (fun c (v : Sparse_vec.t) ->
      Array.iteri
        (fun p r ->
          let k = rlen.(r) in
          rcol.(r).(k) <- c;
          rval.(r).(k) <- v.value.(p);
          rlen.(r) <- k + 1)
        v.idx)
    cols;
  (* Value of an entry the row/col structures claim exists. *)
  let entry r c =
    let cs = rcol.(r) in
    let lo = ref 0 and hi = ref (rlen.(r) - 1) and found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let cm = cs.(mid) in
      if cm = c then found := mid else if cm < c then lo := mid + 1 else hi := mid - 1
    done;
    if !found < 0 then
      failwith
        (Printf.sprintf
           "Lu.factor: missing matrix entry (%d,%d) during elimination" r c);
    rval.(r).(!found)
  in
  let col_add c r =
    let k = clen.(c) in
    if k = Array.length crow.(c) then begin
      let bigger = Array.make (2 * k + 4) 0 in
      Array.blit crow.(c) 0 bigger 0 k;
      crow.(c) <- bigger
    end;
    crow.(c).(k) <- r;
    clen.(c) <- k + 1
  in
  let col_remove c r =
    let rs = crow.(c) in
    let last = clen.(c) - 1 in
    let p = ref 0 in
    while rs.(!p) <> r do incr p done;
    rs.(!p) <- rs.(last);
    clen.(c) <- last
  in
  (* Stacks of candidate singleton rows/columns; entries are revalidated
     when popped, so stale entries are harmless. *)
  let singleton_cols = ref [] and singleton_rows = ref [] in
  let push stack i = stack := i :: !stack in
  for i = 0 to dim - 1 do
    if clen.(i) = 1 then push singleton_cols i;
    if rlen.(i) = 1 then push singleton_rows i
  done;
  let col_max c =
    let acc = ref 0. in
    for p = 0 to clen.(c) - 1 do
      let a = Float.abs (entry crow.(c).(p) c) in
      if a > !acc then acc := a
    done;
    !acc
  in
  (* The chosen pivot of the current step. *)
  let pr = ref (-1) and pc = ref (-1) and pv = ref 0. in
  (* Pop a valid singleton column (count 1, acceptable pivot magnitude). *)
  let rec pop_singleton_col () =
    match !singleton_cols with
    | [] -> false
    | c :: rest ->
        singleton_cols := rest;
        if clen.(c) <> 1 then pop_singleton_col ()
        else begin
          let r = crow.(c).(0) in
          let v = entry r c in
          if Float.abs v > abs_pivot_tol then begin
            pr := r;
            pc := c;
            pv := v;
            true
          end
          else pop_singleton_col ()
        end
  in
  let rec pop_singleton_row () =
    match !singleton_rows with
    | [] -> false
    | r :: rest ->
        singleton_rows := rest;
        (* A row singleton must still respect threshold pivoting within
           its column to bound element growth. *)
        if
          rlen.(r) = 1
          && Float.abs rval.(r).(0) > abs_pivot_tol
          && Float.abs rval.(r).(0) >= threshold *. col_max rcol.(r).(0)
        then begin
          pr := r;
          pc := rcol.(r).(0);
          pv := rval.(r).(0);
          true
        end
        else pop_singleton_row ()
  in
  (* Full Markowitz scan: minimize (row_count-1)*(col_count-1) over entries
     with acceptable magnitude.  Only used when no singleton exists.
     Columns go in ascending order and a candidate must beat the best so
     far strictly; within a column the winner is the acceptable row of
     least cost, ties to the lowest row index — exactly what a strict
     [<] scan over ascending rows picks, so the pivot is reproducible. *)
  let markowitz_scan step =
    let best_cost = ref max_int in
    for c = 0 to dim - 1 do
      let cc = clen.(c) in
      if cc > 0 && cc - 1 < !best_cost then begin
        let cmax = col_max c in
        let rs = crow.(c) in
        let local_r = ref (-1) and local_cost = ref !best_cost in
        for p = 0 to cc - 1 do
          let r = rs.(p) in
          let cost = (rlen.(r) - 1) * (cc - 1) in
          if cost < !local_cost || (cost = !local_cost && r < !local_r) then begin
            let v = entry r c in
            if Float.abs v > abs_pivot_tol && Float.abs v >= threshold *. cmax
            then begin
              local_r := r;
              local_cost := cost;
              pv := v
            end
          end
        done;
        if !local_r >= 0 then begin
          pr := !local_r;
          pc := c;
          best_cost := !local_cost
        end
      end
    done;
    if !best_cost = max_int then raise (Singular step)
  in
  (* ---- elimination ---- *)
  let pivot_rows = Array.make dim 0 and pivot_cols = Array.make dim 0 in
  let pivot_vals = Array.make dim 0. in
  let l_rows = Array.make dim [||] and l_factors = Array.make dim [||] in
  let u_cols = Array.make dim [||] and u_vals = Array.make dim [||] in
  (* Work buffers: the pivot row and a merged row. *)
  let u_c = Array.make dim 0 and u_v = Array.make dim 0. in
  let tmp_c = Array.make dim 0 and tmp_v = Array.make dim 0. in
  let tn = ref 0 in
  let keep c v =
    tmp_c.(!tn) <- c;
    tmp_v.(!tn) <- v;
    incr tn
  in
  for k = 0 to dim - 1 do
    if not (pop_singleton_col () || pop_singleton_row ()) then markowitz_scan k;
    let r_hat = !pr and c_hat = !pc and v_hat = !pv in
    (* Snapshot the pivot row (U row), pivot excluded, in column order so
       the update arithmetic below is performed in a fixed sequence. *)
    let nu = ref 0 in
    for p = 0 to rlen.(r_hat) - 1 do
      let c = rcol.(r_hat).(p) in
      if c <> c_hat then begin
        u_c.(!nu) <- c;
        u_v.(!nu) <- rval.(r_hat).(p);
        incr nu
      end
    done;
    let nu = !nu in
    (* Eliminate every other row having an entry in the pivot column, in
       ascending row order; the L factor keeps them descending. *)
    let elim = Array.make (clen.(c_hat) - 1) 0 in
    let ne = ref 0 in
    for p = 0 to clen.(c_hat) - 1 do
      let r = crow.(c_hat).(p) in
      if r <> r_hat then begin
        elim.(!ne) <- r;
        incr ne
      end
    done;
    Array.sort (fun a b -> Int.compare b a) elim;
    let factors = Array.make (Array.length elim) 0. in
    for e = Array.length elim - 1 downto 0 do
      let r = elim.(e) in
      let f = entry r c_hat /. v_hat in
      factors.(e) <- f;
      (* Merge row r (minus its pivot-column entry) with -f * the pivot
         row, in ascending column order.  [cnt] tracks the row's active
         count exactly as the entries change, for the singleton pushes. *)
      let cs = rcol.(r) and vs = rval.(r) and len = rlen.(r) in
      let cnt = ref (len - 1) and i = ref 0 in
      tn := 0;
      for p = 0 to nu - 1 do
        let c = u_c.(p) and u = u_v.(p) in
        while !i < len && cs.(!i) < c do
          if cs.(!i) <> c_hat then keep cs.(!i) vs.(!i);
          incr i
        done;
        if !i < len && cs.(!i) = c then begin
          let next = vs.(!i) -. (f *. u) in
          incr i;
          if Float.abs next <= drop_tol then begin
            col_remove c r;
            decr cnt;
            if clen.(c) = 1 then push singleton_cols c;
            if !cnt = 1 then push singleton_rows r
          end
          else keep c next
        end
        else begin
          let next = -.f *. u in
          if Float.abs next > drop_tol then begin
            keep c next;
            col_add c r;
            incr cnt
          end
        end
      done;
      while !i < len do
        if cs.(!i) <> c_hat then keep cs.(!i) vs.(!i);
        incr i
      done;
      let n = !tn in
      if n > Array.length cs then begin
        rcol.(r) <- Array.sub tmp_c 0 n;
        rval.(r) <- Array.sub tmp_v 0 n
      end
      else begin
        Array.blit tmp_c 0 cs 0 n;
        Array.blit tmp_v 0 vs 0 n
      end;
      rlen.(r) <- n;
      if n = 1 then push singleton_rows r
    done;
    (* Retire the pivot row and column. *)
    for p = 0 to nu - 1 do
      let c = u_c.(p) in
      col_remove c r_hat;
      if clen.(c) = 1 then push singleton_cols c
    done;
    rlen.(r_hat) <- 0;
    clen.(c_hat) <- 0;
    pivot_rows.(k) <- r_hat;
    pivot_cols.(k) <- c_hat;
    pivot_vals.(k) <- v_hat;
    l_rows.(k) <- elim;
    l_factors.(k) <- factors;
    u_cols.(k) <- Array.sub u_c 0 nu;
    u_vals.(k) <- Array.sub u_v 0 nu
  done;
  (* Index the U entries by the step at which their column is pivoted,
     recording the owning step's pivot row directly; each step's entries
     are laid out newest owner first. *)
  let step_of_col = Array.make dim (-1) in
  Array.iteri (fun k c -> step_of_col.(c) <- k) pivot_cols;
  let ucount = Array.make dim 0 in
  Array.iter (Array.iter (fun c -> let k = step_of_col.(c) in ucount.(k) <- ucount.(k) + 1)) u_cols;
  let ucol_rows = Array.map (fun n -> Array.make n 0) ucount in
  let ucol_vals = Array.map (fun n -> Array.make n 0.) ucount in
  for s = 0 to dim - 1 do
    Array.iteri
      (fun p c ->
        let k = step_of_col.(c) in
        let slot = ucount.(k) - 1 in
        ucount.(k) <- slot;
        ucol_rows.(k).(slot) <- pivot_rows.(s);
        ucol_vals.(k).(slot) <- u_vals.(s).(p))
      u_cols.(s)
  done;
  {
    dim;
    pivot_rows;
    pivot_cols;
    pivot_vals;
    l_rows;
    l_factors;
    u_cols;
    u_vals;
    ucol_rows;
    ucol_vals;
  }

let dim t = t.dim

let solve_mut t b =
  let n = t.dim in
  (* Forward: apply the recorded row operations to b.  Zero entries are
     skipped, so the cost tracks the sparsity of the right-hand side (an
     FTRAN of an entering column touches only a few rows). *)
  for k = 0 to n - 1 do
    let br = b.(Array.unsafe_get t.pivot_rows k) in
    if br <> 0. then begin
      let rows = t.l_rows.(k) and factors = t.l_factors.(k) in
      for p = 0 to Array.length rows - 1 do
        let r = Array.unsafe_get rows p in
        b.(r) <- b.(r) -. (Array.unsafe_get factors p *. br)
      done
    end
  done;
  (* Backward: solve U x = b in reverse pivot order, scatter form.  Once
     x at this step's pivot column is known, its contribution is pushed
     into the still-unsolved rows (all U-column entries belong to earlier
     steps); a zero solution entry costs one comparison. *)
  let x = Array.make n 0. in
  for k = n - 1 downto 0 do
    let xk =
      b.(Array.unsafe_get t.pivot_rows k) /. Array.unsafe_get t.pivot_vals k
    in
    x.(Array.unsafe_get t.pivot_cols k) <- xk;
    if xk <> 0. then begin
      let rows = t.ucol_rows.(k) and vals = t.ucol_vals.(k) in
      for p = 0 to Array.length rows - 1 do
        let r = Array.unsafe_get rows p in
        b.(r) <- b.(r) -. (Array.unsafe_get vals p *. xk)
      done
    end
  done;
  x

let solve t b = solve_mut t (Array.copy b)

let solve_transpose_mut t c =
  let n = t.dim in
  let z = Array.make n 0. in
  (* Forward: solve U^T z = c in pivot order, scatter form.  A step's
     [u_cols] all pivot at later steps, so pushing z's contribution into
     them keeps the remaining system consistent while zero entries are
     skipped entirely. *)
  for k = 0 to n - 1 do
    let zk =
      c.(Array.unsafe_get t.pivot_cols k) /. Array.unsafe_get t.pivot_vals k
    in
    z.(Array.unsafe_get t.pivot_rows k) <- zk;
    if zk <> 0. then begin
      let cols = t.u_cols.(k) and vals = t.u_vals.(k) in
      for p = 0 to Array.length cols - 1 do
        let cc = Array.unsafe_get cols p in
        c.(cc) <- c.(cc) -. (Array.unsafe_get vals p *. zk)
      done
    end
  done;
  (* Backward: apply the transposed row operations in reverse. *)
  for k = n - 1 downto 0 do
    let rows = t.l_rows.(k) and factors = t.l_factors.(k) in
    let acc = ref 0. in
    for p = 0 to Array.length rows - 1 do
      acc :=
        !acc +. (Array.unsafe_get factors p *. z.(Array.unsafe_get rows p))
    done;
    let r = Array.unsafe_get t.pivot_rows k in
    z.(r) <- z.(r) -. !acc
  done;
  z

let solve_transpose t c = solve_transpose_mut t (Array.copy c)

let fill_nnz t =
  let acc = ref 0 in
  for k = 0 to t.dim - 1 do
    acc := !acc + 1 + Array.length t.l_rows.(k) + Array.length t.u_cols.(k)
  done;
  !acc
