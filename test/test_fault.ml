(* Robustness contract: deterministic fault injection, solver-boundary
   faults surfacing as [Unknown], the [limits.stop] hook racing the
   final verdict, pool degradation without leaked domains, and loop
   soundness under injected faults — a faulted run may give up
   ([Exhausted] / [Unknown]) but must never flip a verdict. *)

module Sat = Smt.Sat
module Lit = Smt.Lit

let with_faults ?probability ~seed f =
  Fault.activate ?probability ~seed ();
  Fun.protect ~finally:Fault.deactivate f

(* ------------------------------------------------------------------ *)
(* the injector itself                                                 *)
(* ------------------------------------------------------------------ *)

let test_parse_spec () =
  (match Fault.parse_spec "42" with
  | Ok (42, None) -> ()
  | _ -> Alcotest.fail "plain seed should parse");
  (match Fault.parse_spec " 7 : 0.25 " with
  | Ok (7, Some p) when abs_float (p -. 0.25) < 1e-9 -> ()
  | _ -> Alcotest.fail "seed:prob should parse");
  List.iter
    (fun s ->
      match Fault.parse_spec s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S should be rejected" s)
    [ ""; "x"; "4:"; "4:x"; ":0.5"; "4:1.5"; "4:-0.1" ]

let draws n = List.init n (fun _ -> Fault.fire Fault.Solver_call)

let test_deterministic_draws () =
  with_faults ~probability:0.5 ~seed:42 (fun () ->
      let a = draws 64 in
      let fired = List.length (List.filter Fun.id a) in
      if fired = 0 || fired = 64 then
        Alcotest.failf "p=0.5 drew %d/64 fires" fired;
      Alcotest.(check int)
        "injected counter matches the fires" fired
        (Fault.injected Fault.Solver_call);
      (* re-arming with the same seed replays the same sequence *)
      Fault.activate ~probability:0.5 ~seed:42 ();
      Alcotest.(check (list bool)) "same seed, same draws" a (draws 64);
      (* sites draw independently: interleaving another site's draws
         does not perturb this site's sequence *)
      Fault.activate ~probability:0.5 ~seed:42 ();
      let interleaved =
        List.init 64 (fun _ ->
            ignore (Fault.fire Fault.Pool_submit);
            Fault.fire Fault.Solver_call)
      in
      Alcotest.(check (list bool)) "sites are independent" a interleaved;
      (* a different seed gives a different sequence *)
      Fault.activate ~probability:0.5 ~seed:43 ();
      if draws 64 = a then
        Alcotest.fail "seeds 42 and 43 drew identical 64-draw sequences")

let test_dormant_never_fires () =
  Fault.deactivate ();
  Alcotest.(check bool) "inactive after deactivate" false (Fault.active ());
  for _ = 1 to 1000 do
    if Fault.fire Fault.Solver_call || Fault.fire Fault.Pool_submit then
      Alcotest.fail "dormant injector fired"
  done

let test_activate_from_env () =
  Unix.putenv "SCIDUCTION_FAULT_SEED" "19:0.5";
  Alcotest.(check bool) "well-formed spec arms" true (Fault.activate_from_env ());
  Alcotest.(check (option int)) "seed taken from the spec" (Some 19) (Fault.seed ());
  Fault.deactivate ();
  Unix.putenv "SCIDUCTION_FAULT_SEED" "nonsense";
  Alcotest.(check bool) "malformed spec is ignored" false (Fault.activate_from_env ());
  Alcotest.(check bool) "still dormant" false (Fault.active ());
  Unix.putenv "SCIDUCTION_FAULT_SEED" ""

(* ------------------------------------------------------------------ *)
(* solver boundary                                                     *)
(* ------------------------------------------------------------------ *)

let tiny_solver () =
  let s = Sat.create () in
  for _ = 1 to 4 do
    ignore (Sat.new_var s)
  done;
  Sat.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Sat.add_clause s [ Lit.neg_of 0; Lit.pos 2 ];
  Sat.add_clause s [ Lit.pos 3 ];
  s

let test_solver_fault_is_unknown () =
  let s = tiny_solver () in
  with_faults ~probability:1.0 ~seed:5 (fun () ->
      match Sat.solve s with
      | Sat.Unknown Sat.Interrupted -> ()
      | _ -> Alcotest.fail "faulted solve must answer Unknown Interrupted");
  (* the solver is untouched by the injected fault and recovers *)
  match Sat.solve s with
  | Sat.Sat -> ()
  | _ -> Alcotest.fail "solver unusable after an injected fault"

(* Pigeonhole: n+1 pigeons in n holes, var p(i,h) = i * n + h; UNSAT
   and needs real search, so limits and interrupts have something to
   cut short. *)
let pigeonhole n =
  let s = Sat.create () in
  let v i h = (i * n) + h in
  for _ = 1 to (n + 1) * n do
    ignore (Sat.new_var s)
  done;
  for i = 0 to n do
    Sat.add_clause s (List.init n (fun h -> Lit.pos (v i h)))
  done;
  for h = 0 to n - 1 do
    for i = 0 to n do
      for j = i + 1 to n do
        Sat.add_clause s [ Lit.neg_of (v i h); Lit.neg_of (v j h) ]
      done
    done
  done;
  s

let stop_when s f = Sat.set_limits s { Sat.no_limits with Sat.stop = Some f }

let test_terminate_races_verdict () =
  (* a pre-set stop is polled before the first search step, so it
     deterministically beats the verdict *)
  let s = pigeonhole 4 in
  stop_when s (fun () -> true);
  (match Sat.solve s with
  | Sat.Unknown Sat.Interrupted -> ()
  | _ -> Alcotest.fail "pre-set stop must interrupt");
  Sat.clear_limits s;
  (match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "solver must recover its verdict after an interrupt");
  (* a hook turning true after k polls either loses the race (the full
     verdict lands first) or interrupts — never a flipped verdict *)
  List.iter
    (fun k ->
      let s = pigeonhole 4 in
      let polls = ref 0 in
      stop_when s (fun () ->
          incr polls;
          !polls > k);
      match Sat.solve s with
      | Sat.Unsat | Sat.Unknown Sat.Interrupted -> ()
      | Sat.Sat -> Alcotest.fail "interrupt flipped an unsat instance to sat"
      | Sat.Unknown r ->
        Alcotest.failf "unexpected reason %s" (Sat.reason_to_string r))
    [ 0; 1; 2; 5; 50 ];
  (* cross-domain: the flag flips concurrently with the search; the
     verdict must be Unsat or a clean interrupt whichever way the race
     goes *)
  List.iter
    (fun _ ->
      let s = pigeonhole 5 in
      let flag = Atomic.make false in
      let d = Domain.spawn (fun () -> Atomic.set flag true) in
      stop_when s (fun () -> Atomic.get flag);
      let r = Sat.solve s in
      Domain.join d;
      match r with
      | Sat.Unsat | Sat.Unknown Sat.Interrupted -> ()
      | Sat.Sat -> Alcotest.fail "racing interrupt flipped the verdict"
      | Sat.Unknown r ->
        Alcotest.failf "unexpected reason %s" (Sat.reason_to_string r))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* pool degradation                                                    *)
(* ------------------------------------------------------------------ *)

let test_submit_orphans_recovered () =
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      with_faults ~probability:1.0 ~seed:11 (fun () ->
          let futs = List.init 8 (fun i -> Par.submit pool (fun () -> i * i)) in
          Alcotest.(check (list int))
            "orphaned jobs recovered at await"
            (List.init 8 (fun i -> i * i))
            (List.map (Par.await pool) futs);
          if Fault.injected Fault.Pool_submit = 0 then
            Alcotest.fail "no submit faults fired at probability 1"))

let test_spawn_failure_falls_back () =
  with_faults ~probability:1.0 ~seed:3 (fun () ->
      let pool = Par.Pool.create ~jobs:4 () in
      Alcotest.(check int)
        "total spawn failure degrades to sequential" 1 (Par.Pool.jobs pool);
      let f = Par.submit pool (fun () -> 41 + 1) in
      Alcotest.(check int) "degraded pool still runs tasks" 42
        (Par.await pool f);
      Par.Pool.shutdown pool);
  (* partial spawn failures: creation never raises, the pool always
     computes, shutdown always joins cleanly (nothing leaks) *)
  List.iter
    (fun seed ->
      with_faults ~probability:0.5 ~seed (fun () ->
          let pool = Par.Pool.create ~jobs:4 () in
          let jobs = Par.Pool.jobs pool in
          if jobs <> 1 && jobs <> 4 then
            Alcotest.failf "seed %d: pool neither degraded nor whole (%d jobs)"
              seed jobs;
          let futs =
            List.init 32 (fun i -> Par.submit pool (fun () -> i * 2))
          in
          Alcotest.(check (list int))
            "results survive injected submit faults"
            (List.init 32 (fun i -> i * 2))
            (List.map (Par.await pool) futs);
          Par.Pool.shutdown pool))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* budgeted BMC: the exhausted prefix is exactly the unbudgeted one    *)
(* ------------------------------------------------------------------ *)

let test_bmc_exhaustion_prefix () =
  let ts =
    Mc.Systems.mod_counter ~junk:10 ~bits:4 ~modulus:11 ~bad_value:15 ()
  in
  let max_depth = 24 in
  (match Mc.Bmc.sweep ts ~max_depth with
  | Budget.Converged None -> ()
  | _ -> Alcotest.fail "the system should be clean to depth 24");
  (* size the pool off the full sweep's real appetite so exhaustion
     lands mid-sweep whatever the solver's conflict behaviour *)
  let total =
    let sess = Mc.Bmc.new_session ts in
    ignore (Mc.Bmc.sweep_session sess ~max_depth);
    Mc.Bmc.session_conflicts sess
  in
  if total < 4 then
    Alcotest.failf "sweep too easy to starve (%d conflicts total)" total;
  let budget = Budget.limited ~conflicts:(total / 2) () in
  match Mc.Bmc.sweep ~budget ts ~max_depth with
  | Budget.Converged _ ->
    Alcotest.fail "half the conflict appetite cannot finish the sweep"
  | Budget.Exhausted { Mc.Bmc.proved_depth; reason } ->
    (match reason with
    | Budget.Conflicts -> ()
    | r ->
      Alcotest.failf "expected Conflicts exhaustion, got %s"
        (Budget.reason_to_string r));
    if proved_depth >= max_depth then
      Alcotest.fail "exhausted sweep claims the whole range";
    (* every depth the partial claims proved agrees with an unbudgeted
       one-shot check *)
    for d = 0 to proved_depth do
      match Mc.Bmc.check ts ~depth:d with
      | `No_cex -> ()
      | `Cex _ -> Alcotest.failf "proved depth %d flips unbudgeted" d
      | `Unknown _ -> Alcotest.fail "unbudgeted check answered Unknown"
    done

(* ------------------------------------------------------------------ *)
(* loop soundness under fault                                          *)
(* ------------------------------------------------------------------ *)

let test_loops_sound_under_fault () =
  let safe = Mc.Systems.mod_counter ~junk:4 ~bits:3 ~modulus:6 ~bad_value:7 () in
  let unsafe =
    Mc.Systems.mod_counter ~junk:4 ~bits:3 ~modulus:8 ~bad_value:5 ()
  in
  let aig, bad = Invgen.Engine.counter_mod5 () in
  List.iter
    (fun seed ->
      with_faults ~probability:0.2 ~seed (fun () ->
          (match Mc.Cegar.verify safe with
          | Budget.Converged (Mc.Cegar.Unsafe _) ->
            Alcotest.failf "seed %d: fault flipped a safe system to unsafe" seed
          | Budget.Converged (Mc.Cegar.Safe _) | Budget.Exhausted _ -> ());
          (match Mc.Cegar.verify unsafe with
          | Budget.Converged (Mc.Cegar.Safe _) ->
            Alcotest.failf "seed %d: fault flipped an unsafe system to safe"
              seed
          | Budget.Converged (Mc.Cegar.Unsafe _) | Budget.Exhausted _ -> ());
          (match Mc.Bmc.sweep safe ~max_depth:12 with
          | Budget.Converged (Some _) ->
            Alcotest.failf "seed %d: faulted sweep found a phantom cex" seed
          | Budget.Converged None | Budget.Exhausted _ -> ());
          match Invgen.Engine.run aig ~bad with
          | Budget.Converged r ->
            (* anything a faulted converged run proves must be genuinely
               inductive: the clean run proves a superset *)
            let clean =
              Fault.deactivate ();
              let c =
                match Invgen.Engine.run aig ~bad with
                | Budget.Converged c -> c
                | Budget.Exhausted _ ->
                  Alcotest.fail "clean invgen run exhausted"
              in
              Fault.activate ~probability:0.2 ~seed ();
              c
            in
            if
              List.length r.Invgen.Engine.proven
              > List.length clean.Invgen.Engine.proven
            then
              Alcotest.failf "seed %d: faulted run proved more than the clean"
                seed
          | Budget.Exhausted _ -> ()))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "fault"
    [
      ( "injector",
        [
          Alcotest.test_case "parse_spec" `Quick test_parse_spec;
          Alcotest.test_case "deterministic draws" `Quick
            test_deterministic_draws;
          Alcotest.test_case "dormant never fires" `Quick
            test_dormant_never_fires;
          Alcotest.test_case "activate from env" `Quick test_activate_from_env;
        ] );
      ( "solver",
        [
          Alcotest.test_case "fault answers Unknown" `Quick
            test_solver_fault_is_unknown;
          Alcotest.test_case "terminate races the verdict" `Quick
            test_terminate_races_verdict;
        ] );
      ( "pool",
        [
          Alcotest.test_case "submit orphans recovered" `Quick
            test_submit_orphans_recovered;
          Alcotest.test_case "spawn failure falls back" `Quick
            test_spawn_failure_falls_back;
        ] );
      ( "loops",
        [
          Alcotest.test_case "bmc exhaustion prefix" `Quick
            test_bmc_exhaustion_prefix;
          Alcotest.test_case "sound under fault" `Quick
            test_loops_sound_under_fault;
        ] );
    ]
