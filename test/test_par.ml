(* The domain pool and the portfolio SAT front-end. The pool tests pin
   down the contract the fan-out adapters rely on: results in input
   order, exceptions funneled to the submitter without wedging the pool,
   pools reusable across loop iterations, and cooperative cancellation
   that actually stops losing tasks. The portfolio tests check the
   soundness claim — parallel verdicts bit-for-bit equal to sequential
   ones — on the DIMACS regression instances, and that the Sat
   diversification knobs change the search without changing answers. *)

module Lit = Smt.Lit
module Sat = Smt.Sat
module Dpll = Smt.Dpll
module Dimacs = Smt.Dimacs
module Portfolio = Smt.Portfolio

exception Boom

(* ------------------------------------------------------------------ *)
(* pool basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_map_matches_sequential () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 1000 (fun i -> i) in
      let got = Par.map pool (fun x -> (x * x) + 1) xs in
      let want = Array.map (fun x -> (x * x) + 1) xs in
      Alcotest.(check (array int)) "map = Array.map" want got;
      let got_small = Par.map ~chunk:1 pool (fun x -> -x) (Array.sub xs 0 7) in
      Alcotest.(check (array int))
        "chunk:1 map = Array.map"
        (Array.init 7 (fun i -> -i))
        got_small)

let test_map_list_order () =
  Par.Pool.with_pool ~jobs:3 (fun pool ->
      let got = Par.map_list pool (fun x -> 2 * x) [ 5; 1; 4; 1; 3 ] in
      Alcotest.(check (list int)) "order preserved" [ 10; 2; 8; 2; 6 ] got)

let test_iter_covers_all () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let sum = Atomic.make 0 in
      Par.iter pool
        (fun x -> ignore (Atomic.fetch_and_add sum x : int))
        (Array.init 100 (fun i -> i + 1));
      Alcotest.(check int) "every element visited once" 5050 (Atomic.get sum))

let test_sequential_degeneration () =
  (* jobs = 1 spawns no domains; everything runs on the submitter *)
  Par.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Par.Pool.jobs pool);
      let got = Par.map pool (fun x -> x + 1) (Array.init 10 (fun i -> i)) in
      Alcotest.(check (array int))
        "map works without workers"
        (Array.init 10 (fun i -> i + 1))
        got)

(* ------------------------------------------------------------------ *)
(* exception funneling                                                 *)
(* ------------------------------------------------------------------ *)

let test_exception_funnel () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let futs =
        List.init 8 (fun i ->
            Par.submit pool (fun () -> if i = 3 then raise Boom else i))
      in
      (match Par.await_all pool futs with
      | _ -> Alcotest.fail "await_all must re-raise the task's exception"
      | exception Boom -> ());
      (* the failure must not wedge the pool: it keeps executing tasks *)
      let got = Par.map pool (fun x -> x * 10) [| 1; 2; 3 |] in
      Alcotest.(check (array int))
        "pool usable after a failed task" [| 10; 20; 30 |] got)

let test_reuse_across_loops () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 5 do
        let got =
          Par.map pool (fun x -> x * round) (Array.init 50 (fun i -> i))
        in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 50 (fun i -> i * round))
          got
      done)

(* ------------------------------------------------------------------ *)
(* cancellation                                                        *)
(* ------------------------------------------------------------------ *)

let test_first_some_cancels_losers () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let losers_stopped = Atomic.make 0 in
      let loser token =
        match
          while true do
            Par.Cancel.check token
          done
        with
        | () -> None
        | exception Par.Cancelled ->
          ignore (Atomic.fetch_and_add losers_stopped 1 : int);
          None
      in
      let winner _token = Some 42 in
      (* this test terminates only if cancellation reaches the spinning
         losers; the winner's verdict must come through regardless *)
      let got = Par.first_some pool [ loser; winner; loser; loser ] in
      Alcotest.(check (option int)) "winner's value" (Some 42) got;
      Alcotest.(check int) "all losers observed cancellation" 3
        (Atomic.get losers_stopped))

let test_first_some_no_winner () =
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      let got = Par.first_some pool [ (fun _ -> None); (fun _ -> None) ] in
      Alcotest.(check (option int)) "no winner" None got;
      match Par.first_some pool [ (fun _ -> None); (fun _ -> raise Boom) ] with
      | _ -> Alcotest.fail "loser-free failure must re-raise"
      | exception Boom -> ())

(* ------------------------------------------------------------------ *)
(* obs under domains                                                   *)
(* ------------------------------------------------------------------ *)

let test_metrics_concurrent_exact () =
  let c = Obs.Metrics.counter "test_par.concurrent" in
  Obs.Metrics.set_counter c 0;
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      Par.iter pool
        (fun _ ->
          for _ = 1 to 1000 do
            Obs.Metrics.incr c
          done)
        (Array.make 16 ()));
  Alcotest.(check int) "no lost increments" 16000 (Obs.Metrics.counter_value c)

let test_spans_from_domains () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      Par.iter pool
        (fun i -> Obs.with_span "par.task" (fun () -> ignore (Sys.opaque_identity (i * i) : int)))
        (Array.init 32 (fun i -> i)));
  Obs.shutdown ();
  let spans =
    List.filter_map
      (fun r ->
        match Obs.Trace.of_json r with
        | Ok (Obs.Trace.Span { name; depth; dom; _ }) -> Some (name, depth, dom)
        | _ -> None)
      (records ())
  in
  Alcotest.(check int) "one span per task" 32 (List.length spans);
  List.iter
    (fun (name, depth, dom) ->
      Alcotest.(check string) "span name" "par.task" name;
      Alcotest.(check int) "domain-local depth" 0 depth;
      Alcotest.(check bool) "dom id present" true (dom >= 0))
    spans;
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Sat diversification                                                 *)
(* ------------------------------------------------------------------ *)

(* deterministic pseudo-random CNF (seeded LCG; no global Random state) *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (!state lsr 15) mod bound

let random_cnf ~seed ~nvars ~nclauses =
  let next = lcg seed in
  let clause _ = List.init 3 (fun _ -> Lit.make (next nvars) (next 2 = 0)) in
  { Dimacs.nvars; clauses = List.init nclauses clause }

let solve_with ?seed ?default_phase ?restart_base (p : Dimacs.problem) =
  let s = Sat.create ?seed ?default_phase ?restart_base () in
  for _ = 1 to p.Dimacs.nvars do
    ignore (Sat.new_var s : int)
  done;
  List.iter (Sat.add_clause s) p.Dimacs.clauses;
  let r = Sat.solve s in
  (r, Sat.stats s, s)

let test_seed_diversification () =
  let diverged = ref false in
  for i = 1 to 8 do
    let p = random_cnf ~seed:(100 + i) ~nvars:60 ~nclauses:255 in
    let r0, st0, s0 = solve_with ~seed:0 p in
    let r1, st1, _ = solve_with ~seed:987654321 p in
    Alcotest.(check bool)
      (Printf.sprintf "instance %d: seeds agree on sat/unsat" i)
      true (r0 = r1);
    if r0 = Sat.Sat then
      Alcotest.(check bool)
        (Printf.sprintf "instance %d: model sound" i)
        true
        (Dpll.eval (Array.init p.Dimacs.nvars (Sat.value s0)) p.Dimacs.clauses);
    if
      (st0.Sat.decisions, st0.Sat.conflicts, st0.Sat.propagations)
      <> (st1.Sat.decisions, st1.Sat.conflicts, st1.Sat.propagations)
    then diverged := true
  done;
  Alcotest.(check bool)
    "some instance explored a different decision sequence" true !diverged

let test_phase_default_changes_first_model () =
  (* every clause has a positive literal, so all-true satisfies it: a
     phase-true solver decides straight into a model *)
  let p =
    { Dimacs.nvars = 30;
      clauses =
        List.init 60 (fun i ->
            [ Lit.pos (i mod 30); Lit.make ((i + 7) mod 30) (i mod 3 = 0) ]) }
  in
  let r_true, st_true, s = solve_with ~default_phase:true p in
  let r_false, _, _ = solve_with ~default_phase:false p in
  Alcotest.(check bool) "phase knobs agree on satisfiability" true
    (r_true = Sat.Sat && r_false = Sat.Sat);
  Alcotest.(check bool) "all-true model found without conflicts" true
    (st_true.Sat.conflicts = 0);
  Alcotest.(check bool) "model sound" true
    (Dpll.eval (Array.init p.Dimacs.nvars (Sat.value s)) p.Dimacs.clauses)

(* ------------------------------------------------------------------ *)
(* portfolio vs sequential on the DIMACS regression instances          *)
(* ------------------------------------------------------------------ *)

let ring_cnf = "p cnf 4 5\n1 0\n-1 2 0\n-2 3 0\n-3 4 0\n-4 1 0\n"

let multi_cnf =
  "p cnf 8 9\n1 2 3 0\n-1 4 0\n-2 5 0\n-3 6 0\n4 5 6 0\n-7 -8 0\n7 8 0\n\
   -4 -5 7 0\n-6 8 0\n"

let ring_unsat_cnf =
  "p cnf 4 6\n1 0\n-1 2 0\n-2 3 0\n-3 4 0\n-4 1 0\n-2 -4 0\n"

let test_portfolio_agrees_with_sequential () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let instances =
        [ Dimacs.parse ring_cnf; Dimacs.parse multi_cnf;
          Dimacs.parse ring_unsat_cnf ]
        @ List.init 10 (fun i ->
              random_cnf ~seed:(500 + i) ~nvars:40 ~nclauses:172)
      in
      List.iteri
        (fun i p ->
          let seq = Portfolio.solve p in
          Alcotest.(check int) "sequential races one solver" 1 seq.Portfolio.raced;
          let par = Portfolio.solve ~pool p in
          Alcotest.(check bool)
            (Printf.sprintf "instance %d: verdicts identical" i)
            true
            (seq.Portfolio.result = par.Portfolio.result);
          Alcotest.(check int)
            (Printf.sprintf "instance %d: full race" i)
            (Par.Pool.jobs pool) par.Portfolio.raced;
          match par.Portfolio.model with
          | Some m ->
            Alcotest.(check bool)
              (Printf.sprintf "instance %d: winner's model sound" i)
              true
              (Dpll.eval m p.Dimacs.clauses)
          | None ->
            Alcotest.(check bool)
              (Printf.sprintf "instance %d: no model only on unsat" i)
              true
              (par.Portfolio.result = Sat.Unsat))
        instances)


(* ------------------------------------------------------------------ *)
(* learnt-clause exchange                                              *)
(* ------------------------------------------------------------------ *)

let clause lits = Array.of_list (List.map (fun v -> Lit.pos v) lits)

let test_exchange_roundtrip () =
  let ex = Smt.Exchange.create ~workers:3 ~capacity:8 in
  Smt.Exchange.publish ex ~worker:0 ~lbd:2 (clause [ 1; 2 ]);
  Smt.Exchange.publish ex ~worker:1 ~lbd:3 (clause [ 3 ]);
  (* a worker never re-imports its own exports *)
  let mine = Smt.Exchange.drain ex ~worker:0 in
  Alcotest.(check int) "own outbox excluded" 1 (List.length mine);
  Alcotest.(check bool)
    "worker 0 sees worker 1's clause" true
    (match mine with [ (3, c) ] -> c = clause [ 3 ] | _ -> false);
  (* draining is cursor-based: nothing new, nothing returned *)
  Alcotest.(check int) "drain is idempotent" 0
    (List.length (Smt.Exchange.drain ex ~worker:0));
  let theirs = Smt.Exchange.drain ex ~worker:2 in
  Alcotest.(check int) "third party sees both" 2 (List.length theirs);
  Alcotest.(check int) "published totals" 2 (Smt.Exchange.published ex)

let test_exchange_overflow_drops_oldest () =
  let capacity = 4 in
  let ex = Smt.Exchange.create ~workers:2 ~capacity in
  Alcotest.(check int) "no drops before any traffic" 0
    (Smt.Exchange.dropped ex);
  (* publish well past capacity: never blocks, oldest entries are
     overwritten in place *)
  for i = 1 to 11 do
    Smt.Exchange.publish ex ~worker:0 ~lbd:2 (clause [ i ])
  done;
  let got = Smt.Exchange.drain ex ~worker:1 in
  Alcotest.(check int) "only the newest [capacity] survive" capacity
    (List.length got);
  Alcotest.(check bool)
    "survivors are the most recent, oldest first" true
    (List.map snd got = List.map (fun i -> clause [ i ]) [ 8; 9; 10; 11 ]);
  (* the 7 lapped clauses are no longer silent: the drain counted them *)
  Alcotest.(check int) "lap drops counted" 7 (Smt.Exchange.dropped ex);
  (* the reader's cursor has caught up; later traffic flows normally *)
  Smt.Exchange.publish ex ~worker:0 ~lbd:1 (clause [ 12 ]);
  Alcotest.(check bool)
    "post-overflow publish delivered" true
    (List.map snd (Smt.Exchange.drain ex ~worker:1) = [ clause [ 12 ] ]);
  Alcotest.(check int) "published counts every publish" 12
    (Smt.Exchange.published ex);
  Alcotest.(check int) "clean drain adds no drops" 7 (Smt.Exchange.dropped ex)

(* The export hook must not perturb the search: a solver that exports
   into an exchange nobody else writes to (so every import drains
   empty) must take exactly the decision sequence of a plain solver. *)
let test_share_export_does_not_perturb () =
  let p = random_cnf ~seed:4242 ~nvars:60 ~nclauses:255 in
  let r0, st0, _ = solve_with ~seed:17 p in
  let ex = Smt.Exchange.create ~workers:2 ~capacity:64 in
  let s = Sat.create ~seed:17 () in
  for _ = 1 to p.Dimacs.nvars do
    ignore (Sat.new_var s : int)
  done;
  List.iter (Sat.add_clause s) p.Dimacs.clauses;
  Sat.set_share s
    (Some
       {
         Sat.export =
           (fun ~lbd lits -> Smt.Exchange.publish ex ~worker:0 ~lbd lits);
         Sat.import = (fun () -> Smt.Exchange.drain ex ~worker:0);
       });
  let r1 = Sat.solve s in
  let st1 = Sat.stats s in
  Alcotest.(check bool) "verdicts equal" true (r0 = r1);
  Alcotest.(check bool)
    "decision sequence untouched" true
    ((st0.Sat.decisions, st0.Sat.conflicts, st0.Sat.propagations)
    = (st1.Sat.decisions, st1.Sat.conflicts, st1.Sat.propagations));
  Alcotest.(check bool)
    "learnt clauses were exported" true
    (Smt.Exchange.published ex > 0)

let test_share_import_filters () =
  let s = Sat.create () in
  let vp = Sat.new_var s and vq = Sat.new_var s and vr = Sat.new_var s in
  let p = Lit.pos vp and q = Lit.pos vq and r = Lit.pos vr in
  Sat.add_clause s [ p ];
  Sat.add_clause s [ q; r ];
  let batch = ref [] in
  Sat.set_share s
    (Some
       {
         Sat.export = (fun ~lbd:_ _ -> ());
         Sat.import =
           (fun () ->
             let b = !batch in
             batch := [];
             b);
       });
  Alcotest.(check bool) "baseline sat" true (Sat.solve s = Sat.Sat);
  let learnts0 = (Sat.stats s).Sat.learnts in
  (* satisfied at root (p is a root unit) and out-of-range clauses must
     both be dropped on import *)
  batch :=
    [ (2, [| p; q |]); (1, [| Lit.pos 99 |]) ];
  Alcotest.(check bool) "still sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check int)
    "satisfied/foreign imports never stored" learnts0
    (Sat.stats s).Sat.learnts;
  (* a genuinely new consequence is adopted *)
  batch := [ (2, [| q; Lit.neg r |]) ];
  Alcotest.(check bool) "sat after real import" true (Sat.solve s = Sat.Sat);
  Alcotest.(check int)
    "imported clause stored as a learnt" (learnts0 + 1)
    (Sat.stats s).Sat.learnts

let test_portfolio_share_verdicts_stable () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let instances =
        [ Dimacs.parse ring_cnf; Dimacs.parse multi_cnf;
          Dimacs.parse ring_unsat_cnf ]
        @ List.init 6 (fun i ->
              random_cnf ~seed:(900 + i) ~nvars:50 ~nclauses:215)
      in
      List.iteri
        (fun i p ->
          let seq = Portfolio.solve p in
          let shared = Portfolio.solve ~pool p in
          let pure = Portfolio.solve ~pool ~share:false p in
          let again = Portfolio.solve ~pool p in
          Alcotest.(check bool)
            (Printf.sprintf "instance %d: sharing preserves the verdict" i)
            true
            (seq.Portfolio.result = shared.Portfolio.result
            && seq.Portfolio.result = pure.Portfolio.result
            && seq.Portfolio.result = again.Portfolio.result);
          match shared.Portfolio.model with
          | Some m ->
            Alcotest.(check bool)
              (Printf.sprintf "instance %d: shared-race model sound" i)
              true
              (Dpll.eval m p.Dimacs.clauses)
          | None ->
            Alcotest.(check bool)
              (Printf.sprintf "instance %d: no model only on unsat" i)
              true
              (shared.Portfolio.result = Sat.Unsat))
        instances)

(* ------------------------------------------------------------------ *)
(* jobs parsing                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_jobs () =
  let ok s n =
    Alcotest.(check bool)
      (Printf.sprintf "parse %S" s)
      true
      (Par.parse_jobs s = Ok n)
  in
  let err s =
    Alcotest.(check bool)
      (Printf.sprintf "reject %S" s)
      true
      (match Par.parse_jobs s with Error _ -> true | Ok _ -> false)
  in
  ok "1" 1;
  ok "4" 4;
  ok " 8 " 8;
  err "0";
  err "-3";
  err "abc";
  err "2.5";
  err ""

let test_env_jobs_strict () =
  let orig = Sys.getenv_opt "SCIDUCTION_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "SCIDUCTION_JOBS" (Option.value orig ~default:""))
  @@ fun () ->
  Unix.putenv "SCIDUCTION_JOBS" "3";
  Alcotest.(check int) "valid env, lenient" 3 (Par.env_jobs ~default:1 ());
  Alcotest.(check int) "valid env, strict" 3 (Par.env_jobs_exn ~default:1 ());
  Unix.putenv "SCIDUCTION_JOBS" "zero";
  Alcotest.(check int) "lenient falls back on garbage" 5
    (Par.env_jobs ~default:5 ());
  (match Par.env_jobs_exn ~default:5 () with
  | _ -> Alcotest.fail "strict must reject a garbage SCIDUCTION_JOBS"
  | exception Failure _ -> ());
  Unix.putenv "SCIDUCTION_JOBS" "0";
  match Par.env_jobs_exn () with
  | _ -> Alcotest.fail "strict must reject a non-positive SCIDUCTION_JOBS"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* fan-out adapters                                                    *)
(* ------------------------------------------------------------------ *)

(* replay a BMC trace: the final state after consuming every input must
   be bad (that is where [Bmc.check] truncates) *)
let trace_reaches_bad ts trace =
  let state =
    List.fold_left
      (fun state input -> Mc.Ts.step ts ~state ~input)
      ts.Mc.Ts.init trace
  in
  Mc.Ts.is_bad ts state

let test_bmc_sweep_agreement () =
  (* CI sets SCIDUCTION_JOBS to exercise wider pools; locally default 2 *)
  let jobs = max 2 (Par.env_jobs ~default:2 ()) in
  Par.Pool.with_pool ~jobs @@ fun pool ->
  List.iter
    (fun (name, ts, max_depth) ->
      let unwrap = function
        | Budget.Converged r -> r
        | Budget.Exhausted _ ->
          Alcotest.failf "%s: unbudgeted sweep exhausted" name
      in
      let seq = unwrap (Mc.Bmc.sweep ts ~max_depth) in
      (* force [jobs] claim-loop workers even where the hardware cap
         would pick fewer, so the concurrent path (shared queue, best
         CAS, status marking) is exercised on any machine *)
      let par = unwrap (Mc.Bmc.sweep ~pool ~workers:jobs ts ~max_depth) in
      match (seq, par) with
      | None, None -> ()
      | Some (d_seq, _), Some (d_par, trace) ->
        Alcotest.(check int) (name ^ ": minimal depth") d_seq d_par;
        Alcotest.(check bool)
          (name ^ ": parallel trace reaches bad") true
          (trace_reaches_bad ts trace)
      | Some _, None -> Alcotest.failf "%s: parallel sweep missed the cex" name
      | None, Some _ -> Alcotest.failf "%s: parallel sweep invented a cex" name)
    [
      ( "safe",
        Mc.Systems.mod_counter ~junk:6 ~bits:3 ~modulus:6 ~bad_value:7 (),
        12 );
      ( "unsafe",
        Mc.Systems.mod_counter ~junk:4 ~bits:3 ~modulus:8 ~bad_value:5 (),
        12 );
    ]

let test_invgen_agreement () =
  Par.Pool.with_pool ~jobs:3 @@ fun pool ->
  List.iter
    (fun (name, (aig, bad)) ->
      let unwrap = function
        | Budget.Converged r -> r
        | Budget.Exhausted _ ->
          Alcotest.failf "%s: unbudgeted invgen run exhausted" name
      in
      let seq = unwrap (Invgen.Engine.run aig ~bad) in
      let par = unwrap (Invgen.Engine.run ~pool aig ~bad) in
      Alcotest.(check int)
        (name ^ ": candidates") seq.Invgen.Engine.candidates
        par.Invgen.Engine.candidates;
      Alcotest.(check bool)
        (name ^ ": proven sets equal") true
        (seq.Invgen.Engine.proven = par.Invgen.Engine.proven);
      Alcotest.(check bool)
        (name ^ ": verdicts equal") true
        (seq.Invgen.Engine.verdict = par.Invgen.Engine.verdict
        && seq.Invgen.Engine.verdict_unaided = par.Invgen.Engine.verdict_unaided))
    [
      ("mod5", Invgen.Engine.counter_mod5 ());
      ("ring4", Invgen.Engine.ring_counter ~n:4);
    ]

let test_gametime_learner_agreement () =
  Par.Pool.with_pool ~jobs:3 @@ fun pool ->
  let program = Prog.Benchmarks.modexp ~bits:4 () in
  let pf = Microarch.Platform.create program in
  let platform = Microarch.Platform.time pf in
  let unwrap = function
    | Budget.Converged t -> t
    | Budget.Exhausted _ -> Alcotest.fail "unbudgeted analysis exhausted"
  in
  let seq =
    unwrap (Gametime.Analysis.analyze ~bound:4 ~seed:7 ~platform program)
  in
  let par =
    unwrap (Gametime.Analysis.analyze ~bound:4 ~seed:7 ~pool ~platform program)
  in
  Alcotest.(check bool)
    "learned means identical" true
    (seq.Gametime.Analysis.model.Gametime.Learner.means
    = par.Gametime.Analysis.model.Gametime.Learner.means);
  Alcotest.(check bool)
    "sample counts identical" true
    (seq.Gametime.Analysis.model.Gametime.Learner.samples
    = par.Gametime.Analysis.model.Gametime.Learner.samples)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "map_list preserves order" `Quick
            test_map_list_order;
          Alcotest.test_case "iter covers every element" `Quick
            test_iter_covers_all;
          Alcotest.test_case "jobs=1 runs on the submitter" `Quick
            test_sequential_degeneration;
          Alcotest.test_case "exceptions funnel without wedging" `Quick
            test_exception_funnel;
          Alcotest.test_case "reuse across loop iterations" `Quick
            test_reuse_across_loops;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "first_some cancels losers" `Quick
            test_first_some_cancels_losers;
          Alcotest.test_case "no winner, failures re-raised" `Quick
            test_first_some_no_winner;
        ] );
      ( "obs",
        [
          Alcotest.test_case "concurrent counters are exact" `Quick
            test_metrics_concurrent_exact;
          Alcotest.test_case "spans carry domain ids" `Quick
            test_spans_from_domains;
        ] );
      ( "diversification",
        [
          Alcotest.test_case "seeds diverge but agree" `Quick
            test_seed_diversification;
          Alcotest.test_case "phase default steers the search" `Quick
            test_phase_default_changes_first_model;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "parallel verdicts = sequential verdicts" `Quick
            test_portfolio_agrees_with_sequential;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "publish/drain roundtrip" `Quick
            test_exchange_roundtrip;
          Alcotest.test_case "overflow drops oldest, never blocks" `Quick
            test_exchange_overflow_drops_oldest;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "export alone does not perturb the search"
            `Quick test_share_export_does_not_perturb;
          Alcotest.test_case "satisfied and foreign imports dropped" `Quick
            test_share_import_filters;
          Alcotest.test_case "shared-race verdicts stable and sequential"
            `Quick test_portfolio_share_verdicts_stable;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "parse_jobs accepts positives only" `Quick
            test_parse_jobs;
          Alcotest.test_case "strict env validation raises" `Quick
            test_env_jobs_strict;
        ] );
      ( "adapters",
        [
          Alcotest.test_case "bmc sweep agrees with sequential" `Quick
            test_bmc_sweep_agreement;
          Alcotest.test_case "invgen report agrees with sequential" `Quick
            test_invgen_agreement;
          Alcotest.test_case "gametime model is bit-identical" `Quick
            test_gametime_learner_agreement;
        ] );
    ]
