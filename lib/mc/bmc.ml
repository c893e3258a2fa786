module Tseitin = Smt.Tseitin
module Sat = Smt.Sat
module Lit = Smt.Lit
module Loop = Sciduction.Loop

let compile ctx ~state ~input e =
  let rec go = function
    | Ts.T -> Tseitin.true_ ctx
    | Ts.F -> Tseitin.false_ ctx
    | Ts.V i -> state.(i)
    | Ts.In i -> input.(i)
    | Ts.Not a -> Tseitin.not_ (go a)
    | Ts.And (a, b) -> Tseitin.and2 ctx (go a) (go b)
    | Ts.Or (a, b) -> Tseitin.or2 ctx (go a) (go b)
    | Ts.Xor (a, b) -> Tseitin.xor2 ctx (go a) (go b)
  in
  go e

(* replay the model's inputs and truncate the trace at the first bad
   state *)
let trace_of_inputs (ts : Ts.t) all_inputs =
  let rec truncate state steps_taken inputs_left =
    if Ts.is_bad ts state then Some (List.rev steps_taken)
    else
      match inputs_left with
      | [] -> None (* model exists, so this cannot happen *)
      | input :: rest ->
        truncate (Ts.step ts ~state ~input) (input :: steps_taken) rest
  in
  truncate ts.Ts.init [] all_inputs

type query =
  [ `Cex of bool array list | `No_cex | `Unknown of Smt.Sat.reason ]

let check ?(limits = Sat.no_limits) (ts : Ts.t) ~depth =
  Obs.with_span "bmc.check" ~attrs:[ ("depth", Obs.Int depth) ] @@ fun () ->
  let ctx = Tseitin.create () in
  let state0 =
    Array.map (fun b -> Tseitin.of_bool ctx b) ts.Ts.init
  in
  (* bad at step 0..depth; inputs.(t) drives step t -> t+1 *)
  let inputs = ref [] in
  let bads = ref [ compile ctx ~state:state0 ~input:[||] ts.Ts.bad ] in
  let state = ref state0 in
  for _t = 1 to depth do
    let input = Array.init ts.Ts.num_inputs (fun _ -> Tseitin.fresh ctx) in
    inputs := input :: !inputs;
    let next =
      Array.map (fun e -> compile ctx ~state:!state ~input e) ts.Ts.next
    in
    state := next;
    bads := compile ctx ~state:next ~input:[||] ts.Ts.bad :: !bads
  done;
  let inputs = Array.of_list (List.rev !inputs) in
  let bads = List.rev !bads in
  Tseitin.assert_lit ctx (Tseitin.or_list ctx bads);
  Sat.set_limits (Tseitin.solver ctx) limits;
  match Sat.solve_with_assumptions (Tseitin.solver ctx) [] with
  | Sat.Unsat -> `No_cex
  | Sat.Unknown reason -> `Unknown reason
  | Sat.Sat -> (
    let value l = Tseitin.lit_of_model ctx l in
    let all_inputs =
      Array.to_list (Array.map (fun inp -> Array.map value inp) inputs)
    in
    match trace_of_inputs ts all_inputs with
    | Some trace -> `Cex trace
    | None -> `No_cex)

(* ---- persistent incremental session ---- *)

(* The unrolled transition relation is monotone in the depth: frame t's
   wires never change once built. A session therefore keeps one Tseitin
   context alive, extends the unrolling lazily, and per query only
   asserts its bad-state literal inside a push/pop scope. Repeated
   queries at growing depths — the shape of both BMC loops and CEGAR's
   spuriousness checks — reuse every frame and every learned clause.

   A query builds nothing that dies with its scope: gate definitions
   are permanent, and the gates of a popped scope are dead clauses that
   no level-0 sweep can remove. So a query asserts a wire that already
   exists — step d's bad state for an exact-depth query, the frame's
   prefix disjunction "bad at some step in 0..d" (one gate per frame,
   built with the frame) for a cumulative one — and only a ranged query
   with [0 < lo < hi] builds a disjunction of its own. *)
type session = {
  ts : Ts.t;
  ctx : Tseitin.t;
  mutable frames : int;  (* steps unrolled so far *)
  mutable state : Lit.t array;  (* state wires after [frames] steps *)
  mutable inputs_rev : Lit.t array list;
  mutable bads_rev : Lit.t list;  (* frames+1 entries, newest first *)
  mutable anys_rev : Lit.t list;  (* likewise, any_d = any_{d-1} \/ bad_d *)
}

let new_session (ts : Ts.t) =
  let ctx = Tseitin.create () in
  let state0 = Array.map (fun b -> Tseitin.of_bool ctx b) ts.Ts.init in
  let bad0 = compile ctx ~state:state0 ~input:[||] ts.Ts.bad in
  {
    ts;
    ctx;
    frames = 0;
    state = state0;
    inputs_rev = [];
    bads_rev = [ bad0 ];
    anys_rev = [ bad0 ];
  }

let extend sess depth =
  while sess.frames < depth do
    let input =
      Array.init sess.ts.Ts.num_inputs (fun _ -> Tseitin.fresh sess.ctx)
    in
    sess.inputs_rev <- input :: sess.inputs_rev;
    let next =
      Array.map
        (fun e -> compile sess.ctx ~state:sess.state ~input e)
        sess.ts.Ts.next
    in
    sess.state <- next;
    let bad = compile sess.ctx ~state:next ~input:[||] sess.ts.Ts.bad in
    sess.bads_rev <- bad :: sess.bads_rev;
    sess.anys_rev <-
      Tseitin.or2 sess.ctx (List.hd sess.anys_rev) bad :: sess.anys_rev;
    sess.frames <- sess.frames + 1
  done

let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l)

let rec take n l =
  if n <= 0 then []
  else match l with [] -> [] | x :: rest -> x :: take (n - 1) rest

let session_conflicts sess = Sat.num_conflicts (Tseitin.solver sess.ctx)

(* One scoped query: "bad at some step in [lo..hi]". The unrolling is
   extended to [hi]; a model yields a genuine input trace (replayed on
   the concrete system and truncated at its first bad state), whose
   length can be {e below} [lo] — the model constrains nothing about the
   earlier steps, so it is free to stumble into a shallower bad state.
   [lo = 0] is the classic cumulative query, [lo = hi] the exact-depth
   one. *)
let check_between ?limits sess ~span ~lo ~hi =
  Obs.with_span span ~attrs:[ ("depth", Obs.Int hi); ("lo", Obs.Int lo) ]
  @@ fun () ->
  extend sess hi;
  let ctx = sess.ctx in
  Option.iter (Sat.set_limits (Tseitin.solver ctx)) limits;
  let target =
    if lo = 0 then List.hd (drop (sess.frames - hi) sess.anys_rev)
    else
      (* step [lo]'s bad wire when [lo = hi]; otherwise a parallel
         claim's own disjunction — claims are disjoint, so their gates
         total O(d) over a sweep *)
      Tseitin.or_list ctx
        (List.rev (take (hi - lo + 1) (drop (sess.frames - hi) sess.bads_rev)))
  in
  (* the scope's activation literal is the assumption an unsat core
     blames, so name it after the property it guards *)
  Tseitin.push_named ctx
    (if lo = hi then Printf.sprintf "bad[%d]" lo
     else Printf.sprintf "bad[%d..%d]" lo hi);
  Tseitin.assert_lit ctx target;
  let result =
    match Sat.solve_with_assumptions (Tseitin.solver ctx) [] with
    | Sat.Unsat -> `No_cex
    | Sat.Unknown reason -> `Unknown reason
    | Sat.Sat -> (
      let value l = Tseitin.lit_of_model ctx l in
      let all_inputs =
        List.map
          (fun inp -> Array.map value inp)
          (take hi (List.rev sess.inputs_rev))
      in
      match trace_of_inputs sess.ts all_inputs with
      | Some trace -> `Cex trace
      | None -> `No_cex)
  in
  Tseitin.pop ctx;
  result

let check_depth ?limits sess ~depth =
  check_between ?limits sess ~span:"bmc.check_depth" ~lo:0 ~hi:depth

let check_range ?limits sess ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Bmc.check_range";
  check_between ?limits sess ~span:"bmc.check_range" ~lo ~hi

type partial = {
  proved_depth : int;
  reason : Budget.reason;
}

exception False_start of { start : int; depth : int }

let () =
  Printexc.register_printer (function
    | False_start { start; depth } ->
      Some
        (Printf.sprintf
           "Bmc.sweep: a bad state at depth %d, below start %d, which was \
            claimed clean"
           depth start)
    | _ -> None)

(* both sweeps end the same way: a minimal counterexample, a clean
   bound, or the proved prefix of an exhausted sweep *)
let run_loop ~budget attrs body =
  Loop.run "bmc" ~budget ~attrs
    ~finished:(fun cex ->
      [
        ( "outcome",
          Obs.String (if cex = None then "safe_within_bound" else "unsafe") );
      ])
    ~exhausted:(fun p ->
      (p.reason, [ ("proved_depth", Obs.Int p.proved_depth) ], []))
    body

(* Parallel sweep over a shared work-stealing depth queue.

   A single atomic ([next]) is the queue head: a worker claims the next
   unproved contiguous depth range with a CAS, so no depth is ever
   solved twice and an idle worker steals the frontier instead of
   idling behind a static stripe. Claims use guided self-scheduling —
   about [remaining / (2*jobs)] depths per claim, shrinking to single
   depths near the end — big enough that one ranged query amortizes a
   claim, small enough that workers stay balanced.

   Each worker keeps one persistent incremental session and extends its
   unrolling monotonically across claims. A claim [lo..hi] is decided
   by {e one} ranged query ("bad at some step in [lo..hi]") instead of
   [hi-lo+1] cumulative ones: an unsat answer proves the whole range
   clean in one solver call, which is where the parallel sweep's
   algorithmic advantage over the depth-at-a-time sequential loop comes
   from. A sat answer yields a genuine trace of some length [d]; the
   worker then refines downward ("bad in [lo..d-1]") until the range's
   minimal counterexample depth is found, marking the depths it proves
   clean along the way.

   Minimality of the reported depth: claims are handed out in ascending
   order, so when [lo..hi] is claimed every depth below [lo] is already
   claimed by someone, and a completed claim below the final best depth
   either proved its depths clean or would have recorded a shallower
   counterexample (impossible below the minimum — traces are replayed
   on the concrete system, so every recorded depth is genuine). Hence,
   absent an exhaustion, all depths below the shared best are proved
   clean and the reported depth equals the sequential sweep's; only the
   concrete trace can differ. On exhaustion the cex is reported only if
   everything below it is proved; otherwise the sweep returns the
   contiguous proved prefix, like the sequential loop.

   Worker count: cooperation gains nothing from more workers than
   hardware threads. BMC workers all
   allocate heavily (each extends its own unrolling) and OCaml's minor
   collections synchronize every running domain, so oversubscribing
   cores turns each collection into a scheduling convoy — the old
   striped sweep's 0.18x "speedup" on a single-core host was exactly
   this. The claim width is therefore capped at
   [Domain.recommended_domain_count]: on a machine with fewer cores
   than [jobs] the sweep runs fewer workers over the same claim queue —
   same claims, same verdict, no convoy. *)
let sweep_par ~start ~budget ?workers pool (ts : Ts.t) ~max_depth =
  let width =
    match workers with
    | Some w ->
      if w < 1 then invalid_arg "Bmc.sweep: workers must be >= 1";
      w
    | None ->
      max 1 (min (Par.Pool.jobs pool) (Domain.recommended_domain_count ()))
  in
  run_loop ~budget
    [
      ("start", Obs.Int start);
      ("max_depth", Obs.Int max_depth);
      ("latches", Obs.Int ts.Ts.num_latches);
      ("inputs", Obs.Int ts.Ts.num_inputs);
      ("jobs", Obs.Int (Par.Pool.jobs pool));
      ("workers", Obs.Int width);
    ]
  @@ fun lp ->
  let best = Atomic.make max_int in
  let iter_ix = Atomic.make 0 in
  let rec record depth =
    let cur = Atomic.get best in
    if depth < cur && not (Atomic.compare_and_set best cur depth) then
      record depth
  in
  (* per-depth clean flags (each depth has exactly one prover: no
     races) for the proved-prefix computation, plus the first
     exhaustion reason *)
  let nstatus = max 0 (max_depth - start + 1) in
  let status = Array.make (max 1 nstatus) false in
  let stopped = Atomic.make None in
  let record_stop reason =
    ignore (Atomic.compare_and_set stopped None (Some reason) : bool)
  in
  (* the work queue: next depth nobody has claimed yet. Claim sizing is
     seeded from the shared best-depth atomic: once any worker has
     recorded a counterexample at depth [b], the only work that still
     matters is proving [..b-1] clean, so late claims are sized against
     that frontier instead of the cold [max_depth] — near a suspected
     counterexample region the claims shrink and the remaining workers
     refine close to the frontier rather than grabbing ranges the best
     depth already made moot. *)
  let next = Atomic.make start in
  let rec claim () =
    let lo = Atomic.get next in
    let frontier = min max_depth (Atomic.get best - 1) in
    if lo > frontier then None
    else begin
      let chunk = max 1 ((frontier - lo + 1) / (2 * width)) in
      let hi = min frontier (lo + chunk - 1) in
      if Atomic.compare_and_set next lo (hi + 1) then Some (lo, hi)
      else claim ()
    end
  in
  let worker _w () =
    let sess = new_session ts in
    let found = ref None in
    let note depth trace =
      record depth;
      match !found with
      | Some (d, _) when d <= depth -> ()
      | _ -> found := Some (depth, trace)
    in
    let running = ref true in
    while !running do
      match claim () with
      | None -> running := false
      | Some (lo, hi) -> (
        (* depths at or past the best known counterexample are moot *)
        let hi = min hi (Atomic.get best - 1) in
        if lo > hi then running := false
        else
          match Loop.tick lp with
          | Some reason ->
            record_stop reason;
            running := false
          | None -> (
            Loop.iteration lp
              (Atomic.fetch_and_add iter_ix 1)
              ~attrs:[ ("depth", Obs.Int lo); ("hi", Obs.Int hi) ];
            let solve_range lo hi =
              Loop.solve lp
                ~conflicts:(fun () -> session_conflicts sess)
                (fun limits -> check_range ~limits sess ~lo ~hi)
            in
            match solve_range lo hi with
            | `No_cex ->
              for d = lo to hi do
                status.(d - start) <- true
              done;
              Loop.verdict lp "no_cex"
                ~attrs:[ ("depth", Obs.Int lo); ("hi", Obs.Int hi) ]
            | `Unknown r ->
              record_stop (Loop.reason_of_sat r);
              running := false
            | `Cex trace ->
              (* refine to this claim's minimal counterexample depth;
                 the trace can land below [lo], where minimality is the
                 earlier claims' responsibility *)
              let rec refine trace =
                let d = List.length trace in
                note d trace;
                if d > lo then
                  match solve_range lo (d - 1) with
                  | `No_cex ->
                    for i = lo to d - 1 do
                      status.(i - start) <- true
                    done
                  | `Cex trace' -> refine trace'
                  | `Unknown r -> record_stop (Loop.reason_of_sat r)
              in
              refine trace))
    done;
    !found
  in
  let futures = List.init width (fun w -> Par.submit pool (worker w)) in
  let results = Par.await_all pool futures in
  let first =
    List.fold_left
      (fun acc r ->
        match (acc, r) with
        | Some (da, _), Some (db, _) -> if db < da then r else acc
        | None, r -> r
        | acc, None -> acc)
      None results
  in
  let prefix_proved depth =
    let ok = ref true in
    for i = 0 to depth - start - 1 do
      if not status.(i) then ok := false
    done;
    !ok
  in
  match first with
  | Some (depth, trace)
    when Atomic.get stopped = None || prefix_proved depth ->
    Loop.counterexample lp ~attrs:[ ("length", Obs.Int (List.length trace)) ];
    Loop.verdict lp "unsafe" ~attrs:[ ("depth", Obs.Int depth) ];
    Budget.Converged (Some (depth, trace))
  | _ -> (
    match Atomic.get stopped with
    | None -> Budget.Converged None
    | Some reason ->
      (* deepest depth below which every depth was proved clean *)
      let proved = ref (start - 1) in
      (try
         for i = 0 to nstatus - 1 do
           if status.(i) then proved := start + i else raise Exit
         done
       with Exit -> ());
      Budget.Exhausted { proved_depth = !proved; reason })

(* The classic BMC loop: one persistent session, depths start..max_depth
   in turn. Each depth is one loop iteration, so a trace of a sweep
   shows where the solving time concentrates as the unrolling grows.
   The session may be warm (frames and learnt clauses from earlier
   sweeps carry over); the caller owns the claim that depths below
   [start] are already proved clean.

   Each iteration asks only for the newest frame's bad state (Een and
   Sorensson's incremental BMC): the depths below it are clean — below
   [start] by the caller's claim, the rest by this sweep's own earlier
   iterations — so a reachable bad state at [depth] is the first one,
   and the replayed trace has exactly [depth] steps. A shorter trace
   can only mean the [start] claim was false; it is raised, never
   reported as a minimal counterexample. *)
let sweep_over ~start ~budget sess ~max_depth =
  let ts = sess.ts in
  run_loop ~budget
    [
      ("start", Obs.Int start);
      ("max_depth", Obs.Int max_depth);
      ("latches", Obs.Int ts.Ts.num_latches);
      ("inputs", Obs.Int ts.Ts.num_inputs);
      ("warm_frames", Obs.Int sess.frames);
    ]
  @@ fun lp ->
  let rec go depth i =
    if depth > max_depth then Budget.Converged None
    else
      let exhausted reason =
        Budget.Exhausted { proved_depth = depth - 1; reason }
      in
      match Loop.tick lp with
      | Some reason -> exhausted reason
      | None -> (
        Loop.iteration lp i ~attrs:[ ("depth", Obs.Int depth) ];
        match
          Loop.solve lp
            ~conflicts:(fun () -> session_conflicts sess)
            (fun limits -> check_range ~limits sess ~lo:depth ~hi:depth)
        with
        | `Cex trace when List.length trace <> depth ->
          raise (False_start { start; depth = List.length trace })
        | `Cex trace ->
          Loop.counterexample lp
            ~attrs:[ ("length", Obs.Int (List.length trace)) ];
          Loop.verdict lp "unsafe" ~attrs:[ ("depth", Obs.Int depth) ];
          Budget.Converged (Some (depth, trace))
        | `No_cex ->
          Loop.verdict lp "no_cex" ~attrs:[ ("depth", Obs.Int depth) ];
          go (depth + 1) (i + 1)
        | `Unknown r -> exhausted (Loop.reason_of_sat r))
  in
  go start 0

let sweep ?(start = 0) ?pool ?workers ?(budget = Budget.unlimited)
    (ts : Ts.t) ~max_depth =
  match pool with
  | Some pool when Par.Pool.jobs pool > 1 ->
    sweep_par ~start ~budget ?workers pool ts ~max_depth
  | _ -> sweep_over ~start ~budget (new_session ts) ~max_depth

let sweep_session ?(start = 0) ?(budget = Budget.unlimited) sess ~max_depth =
  if start < 0 then invalid_arg "Bmc.sweep_session: start must be >= 0";
  sweep_over ~start ~budget sess ~max_depth

let session_system sess = sess.ts
let session_frames sess = sess.frames
