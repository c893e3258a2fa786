(* The proof & certificate plane. The checker tests pin down the audit
   contract on hand-built formulas: RUP additions accepted, non-RUP
   additions and proofs that never derive the empty clause rejected.
   The integration tests drive the real pipeline — solver verdicts
   logged to spools, certificates reconstructed exactly as the CLI
   does, then verified by the independent checker — and check the
   no-observer-effect claim: search statistics are bit-identical with
   the plane on and off. *)

module Lit = Smt.Lit
module Sat = Smt.Sat
module Dpll = Smt.Dpll
module Dimacs = Smt.Dimacs
module Proof = Smt.Proof
module Drat = Cert.Drat
module Json = Obs.Json

let tmp_prefix tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "test_proof_%s_%d" tag (Unix.getpid ()))

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

let solve_problem (p : Dimacs.problem) =
  let s = Sat.create () in
  for _ = 1 to p.Dimacs.nvars do
    ignore (Sat.new_var s : int)
  done;
  List.iter (Sat.add_clause s) p.Dimacs.clauses;
  let r = Sat.solve s in
  (r, Sat.stats s)

let ring_unsat_cnf =
  "p cnf 4 6\n1 0\n-1 2 0\n-2 3 0\n-3 4 0\n-4 1 0\n-2 -4 0\n"

(* ------------------------------------------------------------------ *)
(* DIMACS round-trips                                                  *)
(* ------------------------------------------------------------------ *)

let test_dimacs_roundtrip () =
  let p = random_cnf ~seed:11 ~nvars:20 ~nclauses:60 in
  let path = tmp_prefix "roundtrip" ^ ".cnf" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Dimacs.write_file path p;
  let q = Dimacs.parse_file path in
  Alcotest.(check int) "nvars survive" p.Dimacs.nvars q.Dimacs.nvars;
  Alcotest.(check bool) "clauses survive" true (p.Dimacs.clauses = q.Dimacs.clauses);
  let r = Dimacs.parse (Dimacs.to_string p) in
  Alcotest.(check bool) "to_string round-trips" true
    (p.Dimacs.nvars = r.Dimacs.nvars && p.Dimacs.clauses = r.Dimacs.clauses)

let test_with_core_obligation () =
  let p = Dimacs.parse ring_unsat_cnf in
  let core = [ Lit.pos 0; Lit.neg 2 ] in
  let q = Dimacs.with_core p core in
  Alcotest.(check int) "one unit per core literal"
    (List.length p.Dimacs.clauses + 2)
    (List.length q.Dimacs.clauses);
  Alcotest.(check bool) "units appended, base clauses untouched" true
    (q.Dimacs.clauses = p.Dimacs.clauses @ [ [ Lit.pos 0 ]; [ Lit.neg 2 ] ])

(* ------------------------------------------------------------------ *)
(* checker on hand-built proofs                                        *)
(* ------------------------------------------------------------------ *)

let test_checker_accepts_rup () =
  (* 2-variable contradiction: [1] is RUP, then the empty clause is *)
  let cnf = "1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n" in
  match Certs.check_strings cnf "1 0\n0\n" with
  | Error e -> Alcotest.failf "valid proof rejected: %s" e
  | Ok st ->
    Alcotest.(check int) "cnf clauses" 4 st.Drat.cnf_clauses;
    Alcotest.(check int) "additions verified" 2 st.Drat.additions

let test_checker_root_conflict () =
  (* the formula refutes itself by unit propagation: an empty proof is
     already a certificate *)
  match Certs.check_strings "1 0\n-1 2 0\n-2 0\n" "" with
  | Error e -> Alcotest.failf "root conflict not accepted: %s" e
  | Ok _ -> ()

let test_checker_rejects_non_rup () =
  (* satisfiable formula: the empty clause can never be RUP *)
  (match Certs.check_strings "1 2 0\n" "0\n" with
  | Ok _ -> Alcotest.fail "empty clause accepted over a satisfiable CNF"
  | Error e ->
    Alcotest.(check bool) "explains the offending line" true
      (String.length e > 0));
  (* a proof that checks line-by-line but never derives the empty
     clause proves nothing *)
  match Certs.check_strings "1 2 0\n-2 0\n" "1 0\n" with
  | Ok _ -> Alcotest.fail "incomplete proof accepted"
  | Error _ -> ()

let test_checker_deletions () =
  (* deletion of a live clause is honoured; deleting a clause that was
     never added (strengthened-in-place case) is ignored, not fatal *)
  let cnf = "1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n1 2 3 0\n" in
  (* the deletions come first: once the unit [1] lands, propagation
     conflicts at the root and the remaining lines are vacuous *)
  match Certs.check_strings cnf "d 1 2 3 0\nd 7 8 0\n1 0\n0\n" with
  | Error e -> Alcotest.failf "proof with deletions rejected: %s" e
  | Ok st ->
    Alcotest.(check int) "live deletion counted" 1 st.Drat.deletions

(* ------------------------------------------------------------------ *)
(* certificate reconstruction (mirrors the CLI's check-proof)          *)
(* ------------------------------------------------------------------ *)

(* run [f] with the plane logging under a fresh prefix, hand the index
   entries to [use] while the spool files still exist, then clean up *)
let with_plane tag f use =
  let prefix = tmp_prefix tag in
  Fun.protect
    ~finally:(fun () ->
      Proof.disable ();
      Certs.cleanup_spools prefix)
  @@ fun () ->
  Proof.enable ~prefix;
  let () = f () in
  Proof.disable ();
  match Proof.read_index ~prefix with
  | Error e -> Alcotest.failf "index unreadable: %s" e
  | Ok entries -> use entries

let check_entries where entries =
  Alcotest.(check bool) (where ^ ": certificates issued") true
    (entries <> []);
  List.iteri
    (fun i entry ->
      let cnf, drat = Certs.reconstruct entry in
      match Certs.check_strings cnf drat with
      | Ok _ -> ()
      | Error e ->
        let dump ext text =
          let path = Printf.sprintf "/tmp/failcert%d.%s" i ext in
          let oc = open_out path in
          output_string oc text;
          close_out oc
        in
        dump "cnf" cnf;
        dump "drat" drat;
        Alcotest.failf "%s: certificate %d rejected: %s" where i e)
    entries

let test_solver_certificates_verified () =
  let instances =
    Dimacs.parse ring_unsat_cnf
    :: List.init 8 (fun i -> random_cnf ~seed:(300 + i) ~nvars:40 ~nclauses:180)
  in
  let unsat = ref 0 in
  with_plane "solo"
    (fun () ->
      List.iter
        (fun p ->
          match solve_problem p with
          | Sat.Unsat, _ -> incr unsat
          | _ -> ())
        instances)
    (fun entries ->
      Alcotest.(check bool) "some instance was unsat" true (!unsat > 0);
      Alcotest.(check int) "one certificate per unsat verdict" !unsat
        (List.length entries);
      check_entries "solo solver" entries)

let test_verdicts_identical_proof_on_off () =
  let instances =
    List.init 6 (fun i -> random_cnf ~seed:(40 + i) ~nvars:50 ~nclauses:215)
  in
  let plain = List.map solve_problem instances in
  let logged =
    let prefix = tmp_prefix "observer" in
    Fun.protect
      ~finally:(fun () ->
        Proof.disable ();
        Certs.cleanup_spools prefix)
    @@ fun () ->
    Proof.enable ~prefix;
    List.map solve_problem instances
  in
  List.iteri
    (fun i ((r0, st0), (r1, st1)) ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d: verdict unchanged" i)
        true (r0 = r1);
      Alcotest.(check bool)
        (Printf.sprintf "instance %d: search bit-identical" i)
        true
        ((st0.Sat.decisions, st0.Sat.conflicts, st0.Sat.propagations)
        = (st1.Sat.decisions, st1.Sat.conflicts, st1.Sat.propagations)))
    (List.combine plain logged)

(* ------------------------------------------------------------------ *)
(* unsat cores                                                         *)
(* ------------------------------------------------------------------ *)

let test_assumption_core_named () =
  let s = Sat.create () in
  let vp = Sat.new_var s and vq = Sat.new_var s and vr = Sat.new_var s in
  Sat.set_name s vp "P";
  Sat.set_name s vq "Q";
  Sat.set_name s vr "R";
  Sat.add_clause s [ Lit.neg_of vp; Lit.neg_of vq ];
  let r =
    Sat.solve_with_assumptions s [ Lit.pos vp; Lit.pos vq; Lit.pos vr ]
  in
  Alcotest.(check bool) "unsat under assumptions" true (r = Sat.Unsat);
  let names = Sat.core_names s in
  Alcotest.(check bool) "core is nonempty" true (names <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "blamed constraint %s is a culprit" n)
        true
        (n = "P" || n = "Q"))
    names;
  (* the core's standalone proof obligation really is unsatisfiable *)
  let obligation =
    Dimacs.with_core
      { Dimacs.nvars = 3; clauses = [ [ Lit.neg_of vp; Lit.neg_of vq ] ] }
      (Sat.unsat_core s)
  in
  Alcotest.(check bool) "with_core obligation unsat" true
    (Dimacs.solve obligation = Dpll.Unsat);
  (* the innocent assumption must stay sat-able with the culprits gone *)
  Alcotest.(check bool) "R alone is satisfiable" true
    (Sat.solve_with_assumptions s [ Lit.pos vr ] = Sat.Sat)

let () =
  Alcotest.run "proof"
    [
      ( "dimacs",
        [
          Alcotest.test_case "write/parse round-trip" `Quick
            test_dimacs_roundtrip;
          Alcotest.test_case "with_core appends unit obligations" `Quick
            test_with_core_obligation;
        ] );
      ( "checker",
        [
          Alcotest.test_case "accepts a RUP refutation" `Quick
            test_checker_accepts_rup;
          Alcotest.test_case "accepts a root-level conflict" `Quick
            test_checker_root_conflict;
          Alcotest.test_case "rejects non-RUP and incomplete proofs" `Quick
            test_checker_rejects_non_rup;
          Alcotest.test_case "deletions honoured, unmatched ignored" `Quick
            test_checker_deletions;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "solo verdicts reconstruct and verify" `Quick
            test_solver_certificates_verified;
          Alcotest.test_case "logging never perturbs the search" `Quick
            test_verdicts_identical_proof_on_off;
        ] );
      ( "cores",
        [
          Alcotest.test_case "named core blames only culprits" `Quick
            test_assumption_core_named;
        ] );
    ]
