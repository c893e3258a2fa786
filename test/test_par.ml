(* The domain pool the verification server runs its jobs on. The pool
   tests pin down the contract the daemon relies on: each future
   settles with its own task's result, exceptions funnel to the awaiter
   without wedging the pool, and a pool stays usable across rounds. The
   solver test checks that a Sat instance built inside a pool task
   searches exactly as it does on the submitter, so a served job
   reproduces the one-shot run. *)

exception Boom

(* ------------------------------------------------------------------ *)
(* pool basics                                                         *)
(* ------------------------------------------------------------------ *)

let run_tasks pool tasks =
  List.map (Par.await pool) (List.map (Par.submit pool) tasks)

let test_map_matches_sequential () =
  (* one task per element: each future holds its own task's result *)
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 1000 (fun i -> i) in
      let got = run_tasks pool (List.map (fun x () -> (x * x) + 1) xs) in
      Alcotest.(check (list int))
        "pooled tasks = List.map"
        (List.map (fun x -> (x * x) + 1) xs)
        got)

let test_map_list_order () =
  Par.Pool.with_pool ~jobs:3 (fun pool ->
      let got =
        run_tasks pool (List.map (fun x () -> 2 * x) [ 5; 1; 4; 1; 3 ])
      in
      Alcotest.(check (list int)) "order preserved" [ 10; 2; 8; 2; 6 ] got)

let test_iter_covers_all () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let sum = Atomic.make 0 in
      let ran =
        run_tasks pool
          (List.init 100 (fun i () ->
               ignore (Atomic.fetch_and_add sum (i + 1) : int)))
      in
      Alcotest.(check int) "every task awaited" 100 (List.length ran);
      Alcotest.(check int) "every element visited once" 5050 (Atomic.get sum))

let test_sequential_degeneration () =
  (* jobs = 1 spawns no domains; everything runs on the submitter *)
  Par.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Par.Pool.jobs pool);
      let here = (Domain.self () :> int) in
      let doms =
        run_tasks pool (List.init 10 (fun _ () -> (Domain.self () :> int)))
      in
      Alcotest.(check (list int))
        "every task ran on the submitting domain"
        (List.init 10 (fun _ -> here))
        doms)

(* ------------------------------------------------------------------ *)
(* exception funneling                                                 *)
(* ------------------------------------------------------------------ *)

let test_exception_funnel () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let futs =
        List.init 8 (fun i ->
            Par.submit pool (fun () -> if i = 3 then raise Boom else i))
      in
      List.iteri
        (fun i fut ->
          match Par.await pool fut with
          | v -> Alcotest.(check int) "a sibling's result" i v
          | exception Boom ->
            if i <> 3 then
              Alcotest.failf "task %d raised another's exception" i)
        futs;
      (match Par.await pool (List.nth futs 3) with
      | _ -> Alcotest.fail "await must re-raise the task's exception"
      | exception Boom -> ());
      (* the failure must not wedge the pool: it keeps executing tasks *)
      let got = run_tasks pool (List.map (fun x () -> x * 10) [ 1; 2; 3 ]) in
      Alcotest.(check (list int))
        "pool usable after a failed task" [ 10; 20; 30 ] got)

let test_reuse_across_loops () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 5 do
        let got = run_tasks pool (List.init 50 (fun i () -> i * round)) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.init 50 (fun i -> i * round))
          got
      done)

(* ------------------------------------------------------------------ *)
(* obs under domains                                                   *)
(* ------------------------------------------------------------------ *)

let test_metrics_concurrent_exact () =
  let c = Obs.Metrics.counter "test_par.concurrent" in
  Obs.Metrics.set_counter c 0;
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (run_tasks pool
           (List.init 16 (fun _ () ->
                for _ = 1 to 1000 do
                  Obs.Metrics.incr c
                done))
          : unit list));
  Alcotest.(check int) "no lost increments" 16000 (Obs.Metrics.counter_value c)

let test_spans_from_domains () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (run_tasks pool
           (List.init 32 (fun i () ->
                Obs.with_span "par.task" (fun () ->
                    ignore (Sys.opaque_identity (i * i) : int))))
          : unit list));
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
    List.init 12 (fun i -> random_cnf ~seed:(100 + i) ~nvars ~nclauses:255)
  in
  let sequential = List.map (solve_cnf ~nvars) cnfs in
  let pooled =
    Array.of_list
      (Par.Pool.with_pool ~jobs:4 (fun pool ->
           run_tasks pool (List.map (fun cnf () -> solve_cnf ~nvars cnf) cnfs)))
  in
  List.iteri
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
    (List.exists (fun (sat, _, _, _, _) -> sat) sequential
    && List.exists (fun (sat, _, _, _, _) -> not sat) sequential)

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
  Alcotest.(check int) "valid env" 3 (Par.env_jobs_exn ~default:1 ());
  Unix.putenv "SCIDUCTION_JOBS" "zero";
  (match Par.env_jobs_exn ~default:5 () with
  | _ -> Alcotest.fail "strict must reject a garbage SCIDUCTION_JOBS"
  | exception Failure _ -> ());
  Unix.putenv "SCIDUCTION_JOBS" "0";
  match Par.env_jobs_exn () with
  | _ -> Alcotest.fail "strict must reject a non-positive SCIDUCTION_JOBS"
  | exception Failure _ -> ()

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
    ]
