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
   built with the frame) for a cumulative one. *)
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

let session_conflicts sess = Sat.num_conflicts (Tseitin.solver sess.ctx)

(* One scoped query asserting frame [depth]'s wire in a scope called
   [name]. The unrolling is extended to [depth] first, then [wires]
   reads the session's newest-first list of the wire ([bads_rev] or
   [anys_rev]). A model yields a genuine input trace, replayed on the
   concrete system and truncated at its first bad state. *)
let query ?limits sess ~span ~name ~depth wires =
  Obs.with_span span ~attrs:[ ("depth", Obs.Int depth) ] @@ fun () ->
  extend sess depth;
  let ctx = sess.ctx in
  Option.iter (Sat.set_limits (Tseitin.solver ctx)) limits;
  let target = List.hd (drop (sess.frames - depth) (wires sess)) in
  (* the scope's activation literal is the assumption an unsat core
     blames, so name it after the property it guards *)
  Tseitin.push_named ctx name;
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
          (List.rev (drop (sess.frames - depth) sess.inputs_rev))
      in
      match trace_of_inputs sess.ts all_inputs with
      | Some trace -> `Cex trace
      | None -> `No_cex)
  in
  Tseitin.pop ctx;
  result

let check_depth ?limits sess ~depth =
  query ?limits sess ~span:"bmc.check_depth"
    ~name:
      (if depth = 0 then "bad[0]" else Printf.sprintf "bad[0..%d]" depth)
    ~depth
    (fun sess -> sess.anys_rev)

let check_exact ?limits sess ~depth =
  if depth < 0 then invalid_arg "Bmc.check_exact";
  query ?limits sess ~span:"bmc.check_exact"
    ~name:(Printf.sprintf "bad[%d]" depth)
    ~depth
    (fun sess -> sess.bads_rev)

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
  Loop.run "bmc" ~budget
    ~attrs:
      [
        ("start", Obs.Int start);
        ("max_depth", Obs.Int max_depth);
        ("latches", Obs.Int ts.Ts.num_latches);
        ("inputs", Obs.Int ts.Ts.num_inputs);
        ("warm_frames", Obs.Int sess.frames);
      ]
    ~finished:(fun cex ->
      [
        ( "outcome",
          Obs.String (if cex = None then "safe_within_bound" else "unsafe") );
      ])
    ~exhausted:(fun p ->
      (p.reason, [ ("proved_depth", Obs.Int p.proved_depth) ], []))
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
            (fun limits -> check_exact ~limits sess ~depth)
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

let sweep ?(start = 0) ?(budget = Budget.unlimited) (ts : Ts.t) ~max_depth =
  sweep_over ~start ~budget (new_session ts) ~max_depth

let sweep_session ?(start = 0) ?(budget = Budget.unlimited) sess ~max_depth =
  if start < 0 then invalid_arg "Bmc.sweep_session: start must be >= 0";
  sweep_over ~start ~budget sess ~max_depth

let session_system sess = sess.ts
let session_frames sess = sess.frames
