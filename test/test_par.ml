(* The domain pool and the loops' fan-out adapters. The pool tests pin
   down the contract the adapters rely on: results in input order,
   exceptions funneled to the submitter without wedging the pool, and
   pools reusable across loop iterations. The solver test checks that a
   Sat instance built inside a pool task searches exactly as it does on
   the submitter, which the adapters need to reproduce sequential runs.
   The adapter tests check that each pooled loop (BMC sweep, invgen,
   GameTime's learner) reaches the sequential loop's verdict. *)

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
(* one solver per task                                                 *)
(* ------------------------------------------------------------------ *)

module Lit = Smt.Lit
module Sat = Smt.Sat

(* deterministic pseudo-random 3-CNF (seeded LCG; no global Random state) *)
let random_cnf ~seed ~nvars ~nclauses =
  let state = ref seed in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (!state lsr 15) mod bound
  in
  List.init nclauses (fun _ ->
      List.init 3 (fun _ -> Lit.make (next nvars) (next 2 = 0)))

let solve_cnf ~nvars clauses =
  let s = Sat.create () in
  for _ = 1 to nvars do
    ignore (Sat.new_var s : int)
  done;
  List.iter (Sat.add_clause s) clauses;
  let r = Sat.solve s in
  let sound =
    r <> Sat.Sat
    || Smt.Dpll.eval (Array.init nvars (Sat.value s)) clauses
  in
  let st = Sat.stats s in
  (r = Sat.Sat, sound, st.Sat.decisions, st.Sat.conflicts, st.Sat.propagations)

let test_pooled_solves_match () =
  (* near the 3-SAT threshold, so both verdicts and real search occur *)
  let nvars = 60 in
  let cnfs =
    Array.init 12 (fun i -> random_cnf ~seed:(100 + i) ~nvars ~nclauses:255)
  in
  let sequential = Array.map (solve_cnf ~nvars) cnfs in
  let pooled =
    Par.Pool.with_pool ~jobs:4 (fun pool ->
        Par.map ~chunk:1 pool (solve_cnf ~nvars) cnfs)
  in
  Array.iteri
    (fun i (sat, sound, decisions, conflicts, propagations) ->
      let sat', sound', decisions', conflicts', propagations' = pooled.(i) in
      let label what = Printf.sprintf "instance %d: %s" i what in
      Alcotest.(check bool) (label "verdict") sat sat';
      Alcotest.(check bool) (label "sequential model sound") true sound;
      Alcotest.(check bool) (label "pooled model sound") true sound';
      Alcotest.(check (list int))
        (label "decisions, conflicts, propagations")
        [ decisions; conflicts; propagations ]
        [ decisions'; conflicts'; propagations' ])
    sequential;
  Alcotest.(check bool)
    "the suite holds both verdicts" true
    (Array.exists (fun (sat, _, _, _, _) -> sat) sequential
    && Array.exists (fun (sat, _, _, _, _) -> not sat) sequential)

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
      ( "obs",
        [
          Alcotest.test_case "concurrent counters are exact" `Quick
            test_metrics_concurrent_exact;
          Alcotest.test_case "spans carry domain ids" `Quick
            test_spans_from_domains;
        ] );
      ( "solver-per-task",
        [
          Alcotest.test_case "pooled solves match sequential" `Quick
            test_pooled_solves_match;
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
