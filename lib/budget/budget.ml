type t = {
  iterations : int option;
  conflicts : int option;
  seconds : float option;
  cancel : (unit -> bool) option;
}

let unlimited =
  { iterations = None; conflicts = None; seconds = None; cancel = None }

let limited ?iterations ?conflicts ?seconds ?cancel () =
  { iterations; conflicts; seconds; cancel }

let is_unlimited b =
  b.iterations = None && b.conflicts = None && b.seconds = None
  && b.cancel = None

let pp ppf b =
  if is_unlimited b then Format.fprintf ppf "unlimited"
  else begin
    let sep = ref "" in
    let field name pp_v v =
      Format.fprintf ppf "%s%s=%a" !sep name pp_v v;
      sep := ","
    in
    Option.iter (field "iterations" Format.pp_print_int) b.iterations;
    Option.iter (field "conflicts" Format.pp_print_int) b.conflicts;
    Option.iter (fun s -> field "seconds" Format.pp_print_float s) b.seconds;
    Option.iter
      (fun _ -> field "cancellable" Format.pp_print_bool true)
      b.cancel
  end

type reason =
  | Iterations
  | Conflicts
  | Deadline
  | Solver
  | Cancelled

let reason_to_string = function
  | Iterations -> "iterations"
  | Conflicts -> "conflicts"
  | Deadline -> "deadline"
  | Solver -> "solver"
  | Cancelled -> "cancelled"

type ('a, 'p) outcome =
  | Converged of 'a
  | Exhausted of 'p

type meter = {
  b : t;
  mutable iters : int;
  mutable confl : int;
  dl : float option; (* absolute, fixed at [start] *)
}

let start b =
  {
    b;
    iters = 0;
    confl = 0;
    dl = Option.map (fun s -> Unix.gettimeofday () +. s) b.seconds;
  }

let budget m = m.b

let check m =
  match m.b.cancel with
  | Some cancelled when cancelled () -> Some Cancelled
  | _ -> (
    match m.b.iterations with
    | Some cap when m.iters >= cap -> Some Iterations
    | _ -> (
      match m.b.conflicts with
      | Some cap when m.confl >= cap -> Some Conflicts
      | _ -> (
        match m.dl with
        | Some d when Unix.gettimeofday () > d -> Some Deadline
        | _ -> None)))

let tick m =
  m.iters <- m.iters + 1;
  check m

let charge_conflicts m n = if n > 0 then m.confl <- m.confl + n
let used_iterations m = m.iters
let used_conflicts m = m.confl

let remaining_conflicts m =
  Option.map (fun cap -> max 0 (cap - m.confl)) m.b.conflicts

let deadline m = m.dl
let cancel_hook m = m.b.cancel
