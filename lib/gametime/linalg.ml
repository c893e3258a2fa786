module Q = Rational

(* The span is kept in reduced row-echelon form: every row is normalized
   to a leading 1 at its pivot column, and every pivot column is zero in
   all other rows. With that invariant a single reduction pass in any row
   order is a proper normal form (subtracting a row can never reintroduce
   another row's pivot). *)
type span = {
  dim : int;
  mutable rows : Q.t array list;
  mutable pivots : int list; (* pivot column of each row, same order *)
}

let empty_span ~dim = { dim; rows = []; pivots = [] }
let rank s = List.length s.rows

let q_of_ints v = Array.map Q.of_int v

(* reduce v by the RREF rows; returns the residual *)
let reduce s v =
  let v = Array.copy v in
  List.iter2
    (fun row pivot ->
      if not (Q.is_zero v.(pivot)) then begin
        let f = v.(pivot) in
        for j = 0 to s.dim - 1 do
          if not (Q.is_zero row.(j)) then
            v.(j) <- Q.sub v.(j) (Q.mul f row.(j))
        done
      end)
    s.rows s.pivots;
  v

let find_pivot v =
  let rec go j =
    if j >= Array.length v then None
    else if Q.is_zero v.(j) then go (j + 1)
    else Some j
  in
  go 0

let add_if_independent s v =
  if Array.length v <> s.dim then invalid_arg "Linalg: dimension mismatch";
  let r = reduce s (q_of_ints v) in
  match find_pivot r with
  | None -> false
  | Some p ->
    (* normalize the new row to a leading 1 ... *)
    let lead = r.(p) in
    for j = 0 to s.dim - 1 do
      r.(j) <- Q.div r.(j) lead
    done;
    (* ... and eliminate its pivot column from every existing row *)
    List.iter
      (fun row ->
        if not (Q.is_zero row.(p)) then begin
          let f = row.(p) in
          for j = 0 to s.dim - 1 do
            if not (Q.is_zero r.(j)) then
              row.(j) <- Q.sub row.(j) (Q.mul f r.(j))
          done
        end)
      s.rows;
    s.rows <- r :: s.rows;
    s.pivots <- p :: s.pivots;
    true

let in_span s v = find_pivot (reduce s (q_of_ints v)) = None

(* [solve] is Gaussian elimination on the augmented system [B | t] with
   the basis vectors as columns. Its row swaps and elimination factors
   depend only on the coefficient columns, so [factor] runs the
   elimination once on [B] and records them; [solve] replays the record
   on [t] (the very operations the augmented column would undergo) and
   back-substitutes, which yields the same exact rationals as eliminating
   [B | t] afresh. *)
type step = {
  swap : int; (* row exchanged with the step's pivot row *)
  elim : (int * Q.t) array; (* (row, factor): row -= factor * pivot row *)
}

type factored = {
  upper : Q.t array array; (* m x k coefficients after elimination *)
  steps : step array; (* step [s] has its pivot in row [s] *)
  pivot_rows : int array; (* pivot row of each of the k columns, -1 if free *)
}

let factor basis =
  let cols = Array.of_list basis in
  let k = Array.length cols in
  let m = if k = 0 then 0 else Array.length cols.(0) in
  let a = Array.init m (fun i -> Array.init k (fun j -> Q.of_int cols.(j).(i))) in
  (* forward elimination with partial (first nonzero) pivoting *)
  let steps = ref [] in
  let row = ref 0 in
  let pivot_rows = Array.make k (-1) in
  for col = 0 to k - 1 do
    (* find a row at or below !row with nonzero entry in col *)
    let r = ref (-1) in
    for i = !row to m - 1 do
      if !r < 0 && not (Q.is_zero a.(i).(col)) then r := i
    done;
    if !r >= 0 then begin
      let tmp = a.(!row) in
      a.(!row) <- a.(!r);
      a.(!r) <- tmp;
      (* eliminate below *)
      let elim = ref [] in
      for i = !row + 1 to m - 1 do
        if not (Q.is_zero a.(i).(col)) then begin
          let f = Q.div a.(i).(col) a.(!row).(col) in
          for j = col to k - 1 do
            a.(i).(j) <- Q.sub a.(i).(j) (Q.mul f a.(!row).(j))
          done;
          elim := (i, f) :: !elim
        end
      done;
      steps := { swap = !r; elim = Array.of_list (List.rev !elim) } :: !steps;
      pivot_rows.(col) <- !row;
      incr row
    end
  done;
  { upper = a; steps = Array.of_list (List.rev !steps); pivot_rows }

let solve f target =
  let m = Array.length f.upper and k = Array.length f.pivot_rows in
  if k = 0 then
    if Array.for_all (fun x -> x = 0) target then Some [||] else None
  else begin
    if Array.length target <> m then invalid_arg "Linalg.solve: dimension";
    let b = q_of_ints target in
    Array.iteri
      (fun row { swap; elim } ->
        let tmp = b.(row) in
        b.(row) <- b.(swap);
        b.(swap) <- tmp;
        Array.iter (fun (i, fct) -> b.(i) <- Q.sub b.(i) (Q.mul fct b.(row))) elim)
      f.steps;
    (* consistency: rows below the last pivot are zero in [upper], so
       their right-hand side must be zero too *)
    let rank = Array.length f.steps in
    if not (Array.for_all Q.is_zero (Array.sub b rank (m - rank))) then None
    else begin
      (* back substitution; free variables (no pivot) set to zero. Each
         pivot row is zero left of its pivot and the other rows are zero,
         so [x] satisfies all m equations; zero terms are skipped, as
         subtracting them leaves the exact value unchanged *)
      let x = Array.make k Q.zero in
      for col = k - 1 downto 0 do
        let i = f.pivot_rows.(col) in
        if i >= 0 then begin
          let u = f.upper.(i) in
          let s = ref b.(i) in
          for j = col + 1 to k - 1 do
            if not (Q.is_zero u.(j) || Q.is_zero x.(j)) then
              s := Q.sub !s (Q.mul u.(j) x.(j))
          done;
          x.(col) <- Q.div !s u.(col)
        end
      done;
      Some x
    end
  end

let dot_float coeffs values =
  let s = ref 0.0 in
  Array.iteri (fun i c -> s := !s +. (Q.to_float c *. values.(i))) coeffs;
  !s
