type t = {
  lp : Obs.Loop.t;
  meter : Budget.meter;
  cap : int option;
  mutable ticks : int;
  traced : bool;
  mutable d_total : float;
}

let tick l =
  match l.cap with
  | Some cap when l.ticks >= cap -> Some Budget.Iterations
  | _ ->
    l.ticks <- l.ticks + 1;
    Budget.tick l.meter

let deduce l d q =
  if not l.traced then d q
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        l.d_total <- l.d_total +. (Unix.gettimeofday () -. t0))
      (fun () -> d q)
  end

let solve l ~conflicts d =
  let limits =
    {
      Smt.Sat.no_limits with
      Smt.Sat.max_conflicts = Budget.remaining_conflicts l.meter;
      deadline = Budget.deadline l.meter;
      stop = Budget.cancel_hook l.meter;
    }
  in
  let c0 = conflicts () in
  let r = deduce l d limits in
  Budget.charge_conflicts l.meter (conflicts () - c0);
  r

let reason_of_sat = function
  | Smt.Sat.Budget_exhausted -> Budget.Conflicts
  | Smt.Sat.Deadline -> Budget.Deadline
  | Smt.Sat.Interrupted -> Budget.Solver

(* the budget's headroom, so a progress heartbeat mid-run answers "how
   much runway is left"; unlimited axes are omitted, not sent as
   sentinels *)
let headroom meter =
  let conflicts =
    match Budget.remaining_conflicts meter with
    | Some n -> [ ("conflicts_left", Obs.Int n) ]
    | None -> []
  in
  match Budget.deadline meter with
  | Some dl ->
    ("deadline_in", Obs.Float (dl -. Unix.gettimeofday ())) :: conflicts
  | None -> conflicts

let iteration ?(attrs = []) l index =
  if l.traced then
    Obs.Loop.iteration l.lp index ~attrs:(attrs @ headroom l.meter)

let candidate ?attrs l = Obs.Loop.candidate ?attrs l.lp
let verdict ?attrs l v = Obs.Loop.verdict ?attrs l.lp v
let counterexample ?attrs l = Obs.Loop.counterexample ?attrs l.lp

let finish l attrs =
  let deduce = ("deduce_ms", Obs.Float (1000.0 *. l.d_total)) in
  Obs.Loop.finish l.lp ~attrs:(if l.traced then attrs @ [ deduce ] else attrs)

let run ?attrs ?max_iterations ~budget ~finished ~exhausted name body =
  let meter = Budget.start budget in
  let lp = Obs.Loop.start ?attrs name in
  let l =
    {
      lp;
      meter;
      cap = max_iterations;
      ticks = 0;
      traced = Obs.enabled ();
      d_total = 0.0;
    }
  in
  match body l with
  | Budget.Converged a as outcome ->
    finish l (finished a);
    outcome
  | Budget.Exhausted p as outcome ->
    let reason, at, final = exhausted p in
    Obs.Loop.budget_exhausted l.lp ~reason:(Budget.reason_to_string reason)
      ~attrs:at;
    finish l (("outcome", Obs.String "exhausted") :: final);
    outcome
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish l [ ("outcome", Obs.String "raised") ];
    Printexc.raise_with_backtrace e bt
