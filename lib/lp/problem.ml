type t = {
  nrows : int;
  ncols : int;
  cols : Sparse_vec.t array;
  obj : float array;
  lower : float array;
  upper : float array;
  rhs : float array;
  basis_hint : int array option;
}

(* Messages are formatted only on the failing path: [fail] takes the
   format and its arguments and raises, so a passing check costs just its
   test (validation runs on every solve). *)
let fail fmt = Printf.ksprintf (fun msg -> invalid_arg ("Problem: " ^ msg)) fmt

let validate ?(strict = false) t =
  if not (t.nrows >= 0 && t.ncols >= 0) then fail "negative dimensions";
  if Array.length t.cols <> t.ncols then fail "cols length";
  if Array.length t.obj <> t.ncols then fail "obj length";
  if Array.length t.lower <> t.ncols then fail "lower length";
  if Array.length t.upper <> t.ncols then fail "upper length";
  if Array.length t.rhs <> t.nrows then fail "rhs length";
  for j = 0 to t.ncols - 1 do
    let col = t.cols.(j) in
    let idx = col.Sparse_vec.idx and value = col.Sparse_vec.value in
    for p = 0 to Array.length idx - 1 do
      let i = idx.(p) and a = value.(p) in
      if i >= t.nrows then
        fail "column %d has row index %d >= nrows %d" j i t.nrows;
      if not (Float.is_finite a) then
        fail "column %d has non-finite coefficient %g at row %d" j a i
    done;
    if strict && Array.length idx = 0 then
      fail "column %d is empty (appears in no constraint)" j
  done;
  for j = 0 to t.ncols - 1 do
    let lo = t.lower.(j) and hi = t.upper.(j) in
    if Float.is_nan lo || Float.is_nan hi then fail "NaN bound on column %d" j;
    if not (lo <= hi) then
      fail "column %d has lower bound %g > upper bound %g" j lo hi;
    if not (lo < infinity) then fail "column %d has lower bound +inf" j;
    if not (hi > neg_infinity) then fail "column %d has upper bound -inf" j;
    if not (Float.is_finite t.obj.(j)) then
      fail "column %d has non-finite objective coefficient %g" j t.obj.(j)
  done;
  for i = 0 to t.nrows - 1 do
    if not (Float.is_finite t.rhs.(i)) then
      fail "row %d has non-finite rhs %g" i t.rhs.(i)
  done;
  match t.basis_hint with
  | None -> ()
  | Some hint ->
      if Array.length hint <> t.nrows then fail "basis_hint length";
      Array.iteri
        (fun i j ->
          if j >= 0 then begin
            if j >= t.ncols then fail "basis_hint column out of range";
            let col = t.cols.(j) in
            if Sparse_vec.nnz col <> 1 then
              fail "basis_hint column not a unit vector";
            if Sparse_vec.get col i <> 1. then fail "basis_hint column not e_i"
          end)
        hint

let nnz t = Array.fold_left (fun acc c -> acc + Sparse_vec.nnz c) 0 t.cols

let compatible_basis t vars =
  Array.length vars = t.nrows
  &&
  let seen = Array.make t.ncols false in
  Array.for_all
    (fun j ->
      j = -1
      || (j >= 0 && j < t.ncols
          &&
          if seen.(j) then false
          else begin
            seen.(j) <- true;
            true
          end))
    vars

let activity t x =
  let act = Array.make t.nrows 0. in
  Array.iteri
    (fun j col -> if x.(j) <> 0. then Sparse_vec.axpy_dense x.(j) col act)
    t.cols;
  act

let objective_value t x =
  let acc = ref 0. in
  for j = 0 to t.ncols - 1 do
    acc := !acc +. (t.obj.(j) *. x.(j))
  done;
  !acc

let max_constraint_violation t x =
  let act = activity t x in
  let viol = ref 0. in
  for i = 0 to t.nrows - 1 do
    viol := Float.max !viol (Float.abs (act.(i) -. t.rhs.(i)))
  done;
  for j = 0 to t.ncols - 1 do
    viol := Float.max !viol (t.lower.(j) -. x.(j));
    viol := Float.max !viol (x.(j) -. t.upper.(j))
  done;
  Float.max !viol 0.
