type t = {
  lp : Obs.Loop.t;
  meter : Budget.meter;
  cap : int option;
  ticks : int Atomic.t;
  traced : bool;
  (* D's time is the union of its calls' intervals: calls from a pool
     overlap, and a sum could exceed the loop's own wall time *)
  d_lock : Mutex.t;
  mutable d_inflight : int;
  mutable d_since : float;
  mutable d_total : float;
}

let tick l =
  match l.cap with
  | Some cap when Atomic.get l.ticks >= cap -> Some Budget.Iterations
  | _ ->
    Atomic.incr l.ticks;
    Budget.tick l.meter

let deduce l d q =
  if not l.traced then d q
  else begin
    Mutex.protect l.d_lock (fun () ->
        if l.d_inflight = 0 then l.d_since <- Unix.gettimeofday ();
        l.d_inflight <- l.d_inflight + 1);
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect l.d_lock (fun () ->
            l.d_inflight <- l.d_inflight - 1;
            if l.d_inflight = 0 then
              l.d_total <- l.d_total +. (Unix.gettimeofday () -. l.d_since)))
      (fun () -> Obs.Loop.within l.lp (fun () -> d q))
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
      ticks = Atomic.make 0;
      traced = Obs.enabled ();
      d_lock = Mutex.create ();
      d_inflight = 0;
      d_since = 0.0;
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
