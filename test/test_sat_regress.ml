(* Regression suite for the incremental SAT API, driven by DIMACS
   instances. These tests exercise exactly the access patterns the
   counterexample-guided loops rely on: solve / add-clause / solve
   sequences on one long-lived solver, assumption-literal scopes
   (push/pop) flipping instances between sat and unsat, and model
   soundness after the learned-clause database has been reduced (forced
   with [Sat.create ~learnt_limit]). Every model the CDCL solver
   produces is checked against the clauses with the reference
   evaluator. *)

module Lit = Smt.Lit
module Sat = Smt.Sat
module Dpll = Smt.Dpll
module Dimacs = Smt.Dimacs
module Bv = Smt.Bv
module Solver = Smt.Solver

(* ------------------------------------------------------------------ *)
(* DIMACS fixtures                                                     *)
(* ------------------------------------------------------------------ *)

(* x1..x4 in a satisfiable ring of implications plus a seed unit *)
let ring_cnf = "p cnf 4 5\n1 0\n-1 2 0\n-2 3 0\n-3 4 0\n-4 1 0\n"

(* an 8-variable instance with several models *)
let multi_cnf =
  "c multi-model instance\n\
   p cnf 8 9\n\
   1 2 3 0\n\
   -1 4 0\n\
   -2 5 0\n\
   -3 6 0\n\
   4 5 6 0\n\
   -7 -8 0\n\
   7 8 0\n\
   -4 -5 7 0\n\
   -6 8 0\n"

(* clauses that, added on top of [ring_cnf], make it unsatisfiable *)
let ring_killer = "p cnf 4 1\n-2 -4 0\n"

let load ?learnt_limit text =
  let p = Dimacs.parse text in
  let s = Sat.create ?learnt_limit () in
  for _ = 1 to p.Dimacs.nvars do
    ignore (Sat.new_var s)
  done;
  List.iter (Sat.add_clause s) p.Dimacs.clauses;
  (s, p)

let model_of s (p : Dimacs.problem) = Array.init p.Dimacs.nvars (Sat.value s)

let check_model name s (p : Dimacs.problem) =
  Alcotest.(check bool)
    (name ^ ": model satisfies all clauses")
    true
    (Dpll.eval (model_of s p) p.Dimacs.clauses)

(* ------------------------------------------------------------------ *)
(* solve / add-clause / solve sequences                                *)
(* ------------------------------------------------------------------ *)

let test_solve_add_solve () =
  let s, p = load ring_cnf in
  (match Sat.solve s with
  | Sat.Sat -> check_model "ring" s p
  | Sat.Unsat -> Alcotest.fail "ring should be sat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  (* the ring forces all variables true *)
  for v = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "x%d forced" (v + 1)) true
      (Sat.value s v)
  done;
  let killer = Dimacs.parse ring_killer in
  List.iter (Sat.add_clause s) killer.Dimacs.clauses;
  match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat -> Alcotest.fail "ring + killer should be unsat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown"

(* Enumerate all models of [multi_cnf] by repeatedly blocking the last
   model — the canonical solve/add-clause/solve loop — and compare the
   count against brute force. *)
let test_model_enumeration () =
  let s, p = load multi_cnf in
  let n = p.Dimacs.nvars in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Sat.solve s with
    | Sat.Unsat -> continue := false
    | Sat.Unknown _ -> Alcotest.fail "unexpected unknown"
    | Sat.Sat ->
      check_model "enum" s p;
      incr count;
      if !count > 1 lsl n then Alcotest.fail "enumeration did not terminate";
      Sat.add_clause s
        (List.init n (fun v -> Lit.make v (not (Sat.value s v))))
  done;
  let brute = ref 0 in
  for bits = 0 to (1 lsl n) - 1 do
    let m = Array.init n (fun v -> bits land (1 lsl v) <> 0) in
    if Dpll.eval m p.Dimacs.clauses then incr brute
  done;
  Alcotest.(check int) "model count matches brute force" !brute !count

(* ------------------------------------------------------------------ *)
(* assumption scopes                                                   *)
(* ------------------------------------------------------------------ *)

let test_scope_flip () =
  let s, p = load multi_cnf in
  (match Sat.solve s with
  | Sat.Sat -> check_model "base" s p
  | Sat.Unsat -> Alcotest.fail "base should be sat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Sat.push s;
  let killer = Dimacs.parse "p cnf 8 3\n-1 0\n-2 0\n-3 0\n" in
  List.iter (Sat.add_clause s) killer.Dimacs.clauses;
  (match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat -> Alcotest.fail "scoped killer should make it unsat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Sat.pop s;
  (match Sat.solve s with
  | Sat.Sat -> check_model "after pop" s p
  | Sat.Unsat -> Alcotest.fail "pop must restore satisfiability"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Alcotest.(check int) "scopes closed" 0 (Sat.num_scopes s)

let test_scope_nesting () =
  let s, p = load multi_cnf in
  Sat.push s;
  Sat.add_clause s [ Lit.neg_of 0 ];
  (* ~x1 *)
  Sat.push s;
  Sat.add_clause s [ Lit.neg_of 1 ];
  Sat.add_clause s [ Lit.neg_of 2 ];
  (* ~x1 /\ ~x2 /\ ~x3 contradicts clause (1 2 3) *)
  (match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat -> Alcotest.fail "inner scope should be unsat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Sat.pop s;
  (match Sat.solve s with
  | Sat.Sat ->
    check_model "outer scope" s p;
    Alcotest.(check bool) "outer clause still active" false (Sat.value s 0)
  | Sat.Unsat -> Alcotest.fail "outer scope alone should be sat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Sat.pop s;
  (match Sat.solve s with
  | Sat.Sat -> check_model "all popped" s p
  | Sat.Unsat -> Alcotest.fail "unscoped instance should be sat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Alcotest.check_raises "pop without scope"
    (Invalid_argument "Sat.pop: no open scope") (fun () -> Sat.pop s)

let test_assumptions_vs_scopes () =
  (* assumptions and scopes compose: under an open scope forcing ~x7,
     assuming x8 must still work, and the combination is consistent
     with clause (7 8) *)
  let s, p = load multi_cnf in
  Sat.push s;
  Sat.add_clause s [ Lit.neg_of 6 ];
  (match Sat.solve_with_assumptions s [ Lit.pos 7 ] with
  | Sat.Sat ->
    check_model "scope+assumption" s p;
    Alcotest.(check bool) "x7 false" false (Sat.value s 6);
    Alcotest.(check bool) "x8 true" true (Sat.value s 7)
  | Sat.Unsat -> Alcotest.fail "should be sat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  (* assuming x7 under the same scope contradicts the scoped unit *)
  (match Sat.solve_with_assumptions s [ Lit.pos 6 ] with
  | Sat.Unsat -> ()
  | Sat.Sat -> Alcotest.fail "assumption contradicting scope"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Sat.pop s;
  match Sat.solve_with_assumptions s [ Lit.pos 6 ] with
  | Sat.Sat -> check_model "after pop" s p
  | Sat.Unsat -> Alcotest.fail "x7 is free again after pop"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown"

(* ------------------------------------------------------------------ *)
(* clause-database reduction                                           *)
(* ------------------------------------------------------------------ *)

(* deterministic pseudo-random CNF (seeded LCG; no global Random state) *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (* take high bits: the low bits of an LCG cycle with tiny period *)
    (!state lsr 15) mod bound

let random_cnf ~seed ~nvars ~nclauses =
  let next = lcg seed in
  let clause _ =
    List.init 3 (fun _ -> Lit.make (next nvars) (next 2 = 0))
  in
  { Dimacs.nvars; clauses = List.init nclauses clause }

(* With a tiny learnt limit, a conflict-heavy instance is forced through
   many database reductions; answers and models must be unaffected. *)
let test_db_reduction_unsat () =
  let n = 7 in
  (* pigeonhole PHP(8,7): hard enough to learn thousands of clauses *)
  let s = Sat.create ~learnt_limit:20 () in
  for _ = 1 to (n + 1) * n do
    ignore (Sat.new_var s)
  done;
  let v i h = (i * n) + h in
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
  (match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat -> Alcotest.fail "PHP(8,7) must stay unsat under reduction"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  let st = Sat.stats s in
  Alcotest.(check bool) "database was reduced" true (st.Sat.db_reductions > 0);
  Alcotest.(check bool) "learnts were deleted" true
    (st.Sat.learnts_deleted > 0)

let test_db_reduction_models () =
  (* near-threshold random 3-CNF: enough conflicts to trigger reductions
     with a small cap; every sat answer's model is checked, and every
     answer is cross-checked against a fresh unconstrained solver *)
  let checked_reductions = ref 0 in
  for seed = 1 to 20 do
    let p = random_cnf ~seed ~nvars:50 ~nclauses:215 in
    let constrained = Sat.create ~learnt_limit:8 () in
    let fresh = Sat.create () in
    List.iter
      (fun s ->
        for _ = 1 to p.Dimacs.nvars do
          ignore (Sat.new_var s)
        done;
        List.iter (Sat.add_clause s) p.Dimacs.clauses)
      [ constrained; fresh ];
    let a = Sat.solve constrained and b = Sat.solve fresh in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: answers agree" seed)
      true (a = b);
    (match a with
    | Sat.Sat -> check_model (Printf.sprintf "seed %d" seed) constrained p
    | Sat.Unsat -> ()
    | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
    let st = Sat.stats constrained in
    if st.Sat.db_reductions > 0 then incr checked_reductions
  done;
  Alcotest.(check bool) "some instances exercised reduction" true
    (!checked_reductions > 0)

let test_reduction_then_increment () =
  (* after heavy reduction the solver must remain usable incrementally:
     keep strengthening a sat random instance until it goes unsat, and
     agree with the reference solver at every step *)
  let p = random_cnf ~seed:42 ~nvars:24 ~nclauses:96 in
  let s = Sat.create ~learnt_limit:8 () in
  for _ = 1 to p.Dimacs.nvars do
    ignore (Sat.new_var s)
  done;
  List.iter (Sat.add_clause s) p.Dimacs.clauses;
  let extra = random_cnf ~seed:77 ~nvars:24 ~nclauses:60 in
  let added = ref p.Dimacs.clauses in
  List.iter
    (fun c ->
      Sat.add_clause s c;
      added := c :: !added;
      let got = Sat.solve s in
      let want = Dpll.solve ~nvars:p.Dimacs.nvars !added in
      match (got, want) with
      | Sat.Sat, Dpll.Sat _ ->
        Alcotest.(check bool) "incremental model sound" true
          (Dpll.eval (Array.init p.Dimacs.nvars (Sat.value s)) !added)
      | Sat.Unsat, Dpll.Unsat -> ()
      | Sat.Unknown _, _ -> Alcotest.fail "unexpected unknown"
      | Sat.Sat, Dpll.Unsat | Sat.Unsat, Dpll.Sat _ ->
        Alcotest.fail "incremental answer diverged from reference")
    (List.filteri (fun i _ -> i < 12) extra.Dimacs.clauses)

(* ------------------------------------------------------------------ *)
(* Solver-level (QF_BV) incrementality                                 *)
(* ------------------------------------------------------------------ *)

let test_solver_push_pop () =
  let w = 8 in
  let x = Bv.var ~width:w "x" in
  let c v = Bv.const ~width:w v in
  let s = Solver.create () in
  Solver.assert_formula s (Bv.ult x (c 10));
  (match Solver.check s with
  | Solver.Sat -> Alcotest.(check bool) "x < 10" true (Solver.value s "x" < 10)
  | Solver.Unsat -> Alcotest.fail "x < 10 is sat"
  | Solver.Unknown _ -> Alcotest.fail "unexpected unknown");
  Solver.push s;
  Solver.assert_formula s (Bv.ult (c 20) x);
  (match Solver.check s with
  | Solver.Unsat -> ()
  | Solver.Sat -> Alcotest.fail "x < 10 /\\ x > 20 is unsat"
  | Solver.Unknown _ -> Alcotest.fail "unexpected unknown");
  Solver.pop s;
  (match Solver.check s with
  | Solver.Sat -> Alcotest.(check bool) "restored" true (Solver.value s "x" < 10)
  | Solver.Unsat -> Alcotest.fail "pop must restore satisfiability"
  | Solver.Unknown _ -> Alcotest.fail "unexpected unknown");
  let r = Solver.assert_retractable s (Bv.eq x (c 3)) in
  (match Solver.check s with
  | Solver.Sat -> Alcotest.(check int) "pinned" 3 (Solver.value s "x")
  | Solver.Unsat -> Alcotest.fail "x = 3 consistent with x < 10"
  | Solver.Unknown _ -> Alcotest.fail "unexpected unknown");
  Solver.retract s r;
  Solver.assert_formula s (Bv.fnot (Bv.eq x (c 3)));
  match Solver.check s with
  | Solver.Sat ->
    let v = Solver.value s "x" in
    Alcotest.(check bool) "x < 10 and x <> 3" true (v < 10 && v <> 3)
  | Solver.Unsat -> Alcotest.fail "still satisfiable after retraction"
  | Solver.Unknown _ -> Alcotest.fail "unexpected unknown"

(* ------------------------------------------------------------------ *)
(* growth                                                              *)
(* ------------------------------------------------------------------ *)

(* The solver's vectors start empty and double as they fill. 10,000
   variables grow the variable heap, and the trail once the model
   assigns all of them; a hub [x0] implying every other variable grows
   the watch list of [-x0] to 9,999 watches. The implication chain
   [x(i) -> x(i+1)] and one clause over every variable make the search
   propagate along the whole chain. The model is checked by evaluating
   every clause; a unit at the chain's end then forces every variable
   false, which leaves the wide clause unsatisfiable. *)
let test_growth_through_doublings () =
  let n = 10_000 in
  let s = Sat.create () in
  for _ = 1 to n do
    ignore (Sat.new_var s)
  done;
  let x = Lit.pos and nx = Lit.neg_of in
  let clauses =
    List.init (n - 1) (fun i -> [ nx i; x (i + 1) ])
    @ List.init (n - 1) (fun i -> [ nx 0; x (i + 1) ])
    @ [ List.init n x ]
  in
  List.iter (Sat.add_clause s) clauses;
  (match Sat.solve s with
  | Sat.Sat ->
    let m = Sat.model s in
    Alcotest.(check int) "model covers every variable" n (Array.length m);
    Alcotest.(check bool) "model satisfies every clause" true
      (Dpll.eval m clauses)
  | Sat.Unsat -> Alcotest.fail "chain + wide clause should be sat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown");
  Alcotest.(check bool) "the search assigned every variable" true
    ((Sat.stats s).Sat.propagations >= n);
  Sat.add_clause s [ nx (n - 1) ];
  match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat -> Alcotest.fail "a false chain end leaves the wide clause unsat"
  | Sat.Unknown _ -> Alcotest.fail "unexpected unknown"

(* ------------------------------------------------------------------ *)
(* search identity                                                     *)
(* ------------------------------------------------------------------ *)

(* The solver is deterministic: these instances must take exactly the
   search they have always taken (counts recorded before the clause
   arena replaced per-clause arrays). A storage change that reordered
   watch lists, reasons or the deletion order of [reduce_db] would move
   them. *)
let search_counts s =
  let st = Sat.stats s in
  (st.Sat.conflicts, st.Sat.decisions, st.Sat.propagations)

let counts = Alcotest.(triple int int int)

let pigeonhole_8_7 s =
  let n = 7 in
  for _ = 1 to (n + 1) * n do
    ignore (Sat.new_var s)
  done;
  let v i h = (i * n) + h in
  for i = 0 to n do
    Sat.add_clause s (List.init n (fun h -> Lit.pos (v i h)))
  done;
  for h = 0 to n - 1 do
    for i = 0 to n do
      for j = i + 1 to n do
        Sat.add_clause s [ Lit.neg_of (v i h); Lit.neg_of (v j h) ]
      done
    done
  done

let test_search_identity_pigeonhole () =
  let s = Sat.create ~learnt_limit:20 () in
  pigeonhole_8_7 s;
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat);
  Alcotest.check counts "PHP(8,7): conflicts, decisions, propagations"
    (9979, 12071, 137639) (search_counts s);
  let st = Sat.stats s in
  Alcotest.(check (pair int int)) "reductions, learnts deleted" (27, 8495)
    (st.Sat.db_reductions, st.Sat.learnts_deleted)

let test_search_identity_random () =
  (* (seed, conflicts, decisions, propagations) *)
  let expected =
    [ (1, 44, 64, 633); (2, 32, 34, 394); (3, 15, 22, 324); (4, 77, 85, 1090);
      (5, 84, 99, 1283); (6, 2, 12, 81); (7, 54, 65, 777); (8, 31, 36, 420);
      (9, 10, 27, 208); (10, 37, 47, 435); (11, 16, 24, 235);
      (12, 47, 50, 599); (13, 31, 40, 493); (14, 36, 50, 560);
      (15, 25, 27, 362); (16, 24, 36, 374); (17, 28, 39, 395);
      (18, 70, 89, 1063); (19, 24, 28, 316); (20, 11, 19, 226) ]
  in
  List.iter
    (fun (seed, c, d, p) ->
      let s, _ =
        load ~learnt_limit:8
          (Dimacs.to_string (random_cnf ~seed ~nvars:50 ~nclauses:215))
      in
      ignore (Sat.solve s : Sat.result);
      Alcotest.check counts (Printf.sprintf "seed %d" seed) (c, d, p)
        (search_counts s))
    expected

let test_search_identity_scoped () =
  (* scopes, pops and permanent units: [simplify] compacts the arena
     between solves and [reduce_db] runs inside them *)
  let p = random_cnf ~seed:9 ~nvars:60 ~nclauses:240 in
  let s, _ = load ~learnt_limit:8 (Dimacs.to_string p) in
  let verdicts = Buffer.create 12 in
  let solve () =
    Buffer.add_char verdicts
      (match Sat.solve s with
      | Sat.Sat -> 's'
      | Sat.Unsat -> 'u'
      | Sat.Unknown _ -> '?')
  in
  for round = 1 to 6 do
    let extra = random_cnf ~seed:(100 + round) ~nvars:60 ~nclauses:9 in
    Sat.push s;
    List.iter (Sat.add_clause s)
      (List.filteri (fun i _ -> i < 8) extra.Dimacs.clauses);
    solve ();
    Sat.pop s;
    Sat.add_clause s [ List.hd (List.nth extra.Dimacs.clauses 8) ];
    solve ()
  done;
  Alcotest.(check string) "verdicts" "ususssuuuuuu" (Buffer.contents verdicts);
  Alcotest.check counts "conflicts, decisions, propagations" (96, 131, 2008)
    (search_counts s)

(* ------------------------------------------------------------------ *)
(* differential fuzzing                                                *)
(* ------------------------------------------------------------------ *)

(* Random incremental scripts over 3-12 variables, run against the
   reference DPLL at every solve. A tiny learnt cap keeps [reduce_db]
   compacting the clause arena mid-search, and pops and permanent units
   make [simplify] compact it between solves, so stale offsets in
   watches or reasons would surface as wrong verdicts or models. *)

type op =
  | Add of Lit.t list  (** scoped while a scope is open *)
  | Unit of Lit.t  (** [add_clause_permanent]: survives every pop *)
  | Push
  | Pop  (** skipped without an open scope *)
  | Solve of Lit.t list  (** under these assumptions *)

let pp_lits c =
  String.concat " " (List.map (fun l -> string_of_int (Lit.to_int l)) c)

let pp_op = function
  | Add c -> "add " ^ pp_lits c
  | Unit l -> "unit " ^ pp_lits [ l ]
  | Push -> "push"
  | Pop -> "pop"
  | Solve a -> "solve " ^ pp_lits a

let arb_script =
  let open QCheck.Gen in
  let gen =
    int_range 3 12 >>= fun nvars ->
    let lit = map2 Lit.make (int_bound (nvars - 1)) bool in
    let clause =
      list_size (frequency [ (1, return 2); (6, return 3); (1, return 4) ]) lit
    in
    let solve = map (fun a -> Solve a) (list_size (int_bound 3) lit) in
    let block =
      frequency
        [
          (* a scope of random 3-CNF up to past the threshold density,
             queried, and usually retracted again *)
          ( 4,
            map3
              (fun adds solves pop ->
                (Push :: List.map (fun c -> Add c) adds)
                @ solves
                @ if pop then [ Pop ] else [])
              (list_size (int_range nvars (5 * nvars)) clause)
              (list_size (int_range 1 6) solve)
              (frequency [ (3, return true); (1, return false) ]) );
          (1, map (fun c -> [ Add c ]) clause);
          (1, map (fun l -> [ Unit l ]) lit);
          (1, return [ Pop ]);
          (1, map (fun s -> [ s ]) solve);
        ]
    in
    map
      (fun blocks -> (nvars, List.concat blocks))
      (list_size (int_range 1 8) block)
  in
  QCheck.make gen ~print:(fun (nvars, ops) ->
      Printf.sprintf "%d vars: %s" nvars
        (String.concat "; " (List.map pp_op ops)))

let fuzz_reductions = ref 0
let fuzz_simplifications = ref 0
let fuzz_unsat = ref 0

(* Run one script, checking every verdict against [Dpll.solve] and
   every model with [Dpll.eval]; returns the verdicts, the final search
   counts and the solver's statistics. *)
let run_script (nvars, ops) =
  let s = Sat.create ~learnt_limit:4 () in
  for _ = 1 to nvars do
    ignore (Sat.new_var s)
  done;
  let permanent = ref [] and scopes = ref [] in
  let verdicts = ref [] in
  let solve assumptions =
    let active =
      List.map (fun l -> [ l ]) assumptions @ !permanent @ List.concat !scopes
    in
    let got = Sat.solve_with_assumptions s assumptions in
    (match (got, Dpll.solve ~nvars active) with
    | Sat.Sat, Dpll.Sat _ ->
      if not (Dpll.eval (Array.init nvars (Sat.value s)) active) then
        QCheck.Test.fail_report "model violates an active clause"
    | Sat.Unsat, Dpll.Unsat -> ()
    | Sat.Unknown _, _ -> QCheck.Test.fail_report "unexpected unknown"
    | _ -> QCheck.Test.fail_report "verdict disagrees with the reference");
    verdicts := got :: !verdicts
  in
  List.iter
    (function
      | Add c -> (
        Sat.add_clause s c;
        match !scopes with
        | [] -> permanent := c :: !permanent
        | top :: rest -> scopes := (c :: top) :: rest)
      | Unit l ->
        Sat.add_clause_permanent s [ l ];
        permanent := [ l ] :: !permanent
      | Push ->
        Sat.push s;
        scopes := [] :: !scopes
      | Pop -> (
        match !scopes with
        | [] -> ()
        | _ :: rest ->
          Sat.pop s;
          scopes := rest)
      | Solve a -> solve a)
    ops;
  solve [];
  (List.rev !verdicts, search_counts s, Sat.stats s)

let fuzz_prop script =
  let verdicts, plain_counts, st = run_script script in
  fuzz_reductions := !fuzz_reductions + st.Sat.db_reductions;
  fuzz_simplifications := !fuzz_simplifications + st.Sat.simplifications;
  let unsat = List.length (List.filter (( = ) Sat.Unsat) verdicts) in
  fuzz_unsat := !fuzz_unsat + unsat;
  (* the same script with the proof plane on: same search, and every
     Unsat certified by the independent checker *)
  let prefix = Filename.temp_file "sciduction_fuzz" "" in
  Fun.protect
    ~finally:(fun () ->
      Smt.Proof.disable ();
      Certs.cleanup_spools prefix)
  @@ fun () ->
  Smt.Proof.enable ~prefix;
  let logged, logged_counts, _ = run_script script in
  Smt.Proof.disable ();
  if logged <> verdicts || logged_counts <> plain_counts then
    QCheck.Test.fail_report "proof logging changed the search";
  match Smt.Proof.read_index ~prefix with
  | Error e -> QCheck.Test.fail_reportf "index unreadable: %s" e
  | Ok entries ->
    if List.length entries <> unsat then
      QCheck.Test.fail_report "not one certificate per unsat verdict";
    List.iter
      (fun entry ->
        let cnf, drat = Certs.reconstruct entry in
        match Certs.check_strings cnf drat with
        | Ok _ -> ()
        | Error e -> QCheck.Test.fail_reportf "certificate rejected: %s" e)
      entries;
    true

let test_fuzz_against_reference () =
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| 20261017 |])
    (QCheck.Test.make ~name:"sat vs dpll" ~count:1000 arb_script fuzz_prop);
  (* the scripts must actually have reached the code under test *)
  Alcotest.(check bool) "reduce_db ran" true (!fuzz_reductions > 0);
  Alcotest.(check bool) "simplify ran" true (!fuzz_simplifications > 0);
  Alcotest.(check bool) "some verdicts were unsat" true (!fuzz_unsat > 0)

let () =
  Alcotest.run "sat-regress"
    [
      ( "incremental",
        [
          Alcotest.test_case "solve/add-clause/solve" `Quick
            test_solve_add_solve;
          Alcotest.test_case "model enumeration by blocking" `Quick
            test_model_enumeration;
        ] );
      ( "scopes",
        [
          Alcotest.test_case "push/pop flips sat" `Quick test_scope_flip;
          Alcotest.test_case "nested scopes" `Quick test_scope_nesting;
          Alcotest.test_case "assumptions compose with scopes" `Quick
            test_assumptions_vs_scopes;
        ] );
      ( "db-reduction",
        [
          Alcotest.test_case "unsat preserved under reduction" `Quick
            test_db_reduction_unsat;
          Alcotest.test_case "models sound under reduction" `Quick
            test_db_reduction_models;
          Alcotest.test_case "incremental use after reduction" `Quick
            test_reduction_then_increment;
        ] );
      ( "solver",
        [
          Alcotest.test_case "push/pop and retractables over QF_BV" `Quick
            test_solver_push_pop;
        ] );
      ( "growth",
        [
          Alcotest.test_case "10,000 variables through doublings" `Quick
            test_growth_through_doublings;
        ] );
      ( "search",
        [
          Alcotest.test_case "pigeonhole under reduction" `Quick
            test_search_identity_pigeonhole;
          Alcotest.test_case "random 3-CNF" `Quick test_search_identity_random;
          Alcotest.test_case "scopes, pops and units" `Quick
            test_search_identity_scoped;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "scripts vs DPLL and DRAT" `Quick
            test_fuzz_against_reference;
        ] );
    ]
