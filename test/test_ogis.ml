(* Tests for oracle-guided component-based synthesis: the straight-line
   program representation, the location-variable encoding, the OGIS loop
   on the paper's Fig. 8 benchmarks, unrealizability reporting (Fig. 7),
   and SMT-based equivalence checking of the synthesized programs. *)

module Bv = Smt.Bv
module Component = Ogis.Component
module Straightline = Ogis.Straightline
module Encode = Ogis.Encode
module Synth = Ogis.Synth
module Deob = Ogis.Deobfuscate
module B = Prog.Benchmarks

let w = 16

(* ------------------------------------------------------------------ *)
(* Straight-line programs                                              *)
(* ------------------------------------------------------------------ *)

let xor_swap =
  (* t0 = x0^x1; t1 = t0^x1 (=x0); t2 = t0^t1 (=x1); return (t1, t2) *)
  Straightline.make ~width:w ~ninputs:2
    [
      { Straightline.comp = Component.xor; args = [ 0; 1 ] };
      { Straightline.comp = Component.xor; args = [ 2; 1 ] };
      { Straightline.comp = Component.xor; args = [ 2; 3 ] };
    ]
    ~outputs:[ 4; 3 ]

let test_straightline_eval () =
  Alcotest.(check (list int)) "swap" [ 7; 3 ] (Straightline.eval xor_swap [ 3; 7 ]);
  Alcotest.(check (list int))
    "swap equal values" [ 5; 5 ]
    (Straightline.eval xor_swap [ 5; 5 ])

let test_straightline_validation () =
  let line comp args = { Straightline.comp; args } in
  Alcotest.check_raises "forward reference"
    (Invalid_argument "Straightline.make: forward or invalid reference")
    (fun () ->
      ignore
        (Straightline.make ~width:w ~ninputs:1
           [ line Component.not_ [ 2 ] ]
           ~outputs:[ 1 ]));
  Alcotest.check_raises "arity"
    (Invalid_argument "Straightline.make: arity mismatch") (fun () ->
      ignore
        (Straightline.make ~width:w ~ninputs:1
           [ line Component.add [ 0 ] ]
           ~outputs:[ 1 ]));
  Alcotest.check_raises "bad output"
    (Invalid_argument "Straightline.make: bad output") (fun () ->
      ignore (Straightline.make ~width:w ~ninputs:1 [] ~outputs:[ 1 ]))

(* tiny substring helper *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_straightline_pp () =
  let rendered = Format.asprintf "%a" Straightline.pp xor_swap in
  Alcotest.(check bool) "mentions xor" true (contains rendered "x0 ^ x1")

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let test_loc_width () =
  let spec lib ninputs =
    { Encode.width = w; ninputs; noutputs = 1; library = lib }
  in
  Alcotest.(check int) "3 locations -> 2 bits" 2
    (Encode.loc_width (spec [ Component.add ] 2));
  Alcotest.(check int) "7 locations -> 3 bits" 3
    (Encode.loc_width (spec Component.fig8_p2 3))

let session_with spec examples =
  let sess = Encode.new_session spec in
  List.iter (Encode.add_example sess) examples;
  sess

let test_synthesize_candidate_consistent () =
  let spec =
    { Encode.width = w; ninputs = 2; noutputs = 1; library = [ Component.add ] }
  in
  let examples = [ ([ 1; 2 ], [ 3 ]); ([ 10; 20 ], [ 30 ]) ] in
  match Encode.next_candidate (session_with spec examples) with
  | `Unrealizable | `Unknown _ -> Alcotest.fail "candidate must exist"
  | `Candidate prog ->
    List.iter
      (fun (ins, outs) ->
        Alcotest.(check (list int)) "consistent" outs (Straightline.eval prog ins))
      examples

let test_synthesize_candidate_none () =
  (* x0+x1 cannot produce these I/O pairs *)
  let spec =
    { Encode.width = w; ninputs = 2; noutputs = 1; library = [ Component.add ] }
  in
  let examples = [ ([ 1; 2 ], [ 3 ]); ([ 1; 2 ], [ 4 ]) ] in
  match Encode.next_candidate (session_with spec examples) with
  | `Unrealizable -> ()
  | `Candidate _ -> Alcotest.fail "contradictory examples accepted"
  | `Unknown _ -> Alcotest.fail "unexpected unknown"

let test_distinguishing_input () =
  let spec =
    {
      Encode.width = w;
      ninputs = 2;
      noutputs = 1;
      library = [ Component.add; Component.xor ];
    }
  in
  (* on (0,0) add and xor agree; a distinguishing input must exist *)
  let sess = session_with spec [ ([ 0; 0 ], [ 0 ]) ] in
  match Encode.next_candidate sess with
  | `Unrealizable | `Unknown _ -> Alcotest.fail "candidate must exist"
  | `Candidate cand -> (
    match Encode.distinguishing sess cand with
    | `Unique | `Unknown _ -> Alcotest.fail "add and xor are distinguishable"
    | `Input ins ->
      Alcotest.(check int) "input arity" 2 (List.length ins))

(* Canonical wirings: brute force at width 3. Every wiring the
   unordered encoding admits is enumerated, with one program output:
   component outputs are a bijection onto the non-input locations
   (identical components in increasing order), each input lies strictly
   below its component's output, and the output location is anywhere.
   Its function is its truth table under [Straightline.eval]. The
   wirings [Encode.wfp] keeps must compute exactly the same set of
   functions, with fewer wirings whenever a component is commutative. *)

let rec perms = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x -> List.map (List.cons x) (perms (List.filter (( <> ) x) xs)))
      xs

let rec product = function
  | [] -> [ [] ]
  | choices :: rest ->
    List.concat_map
      (fun tail -> List.map (fun c -> c :: tail) choices)
      (product rest)

(* every list of [k] values below [bound] *)
let tuples k bound = product (List.init k (fun _ -> List.init bound Fun.id))

let wiring_functions ~ninputs (lib : Component.t list) =
  let width = 3 in
  let spec = { Encode.width; ninputs; noutputs = 1; library = lib } in
  let wfp = Encode.wfp spec in
  let comps = Array.of_list lib in
  let n = Array.length comps in
  let nloc = ninputs + n in
  let identical_increasing lo =
    let lo = Array.of_list lo in
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if comps.(i).Component.name = comps.(j).Component.name
           && lo.(i) >= lo.(j)
        then ok := false
      done
    done;
    !ok
  in
  let inputs = Array.of_list (tuples ninputs (1 lsl width)) in
  (* a truth table as a string (hashed in full, unlike a list) *)
  let all = Hashtbl.create 64 and canonical = Hashtbl.create 64 in
  let nall = ref 0 and ncanonical = ref 0 in
  List.iter
    (fun lo ->
      if identical_increasing lo then
        List.iter
          (fun li ->
            (* the program's lines sit at their components' locations *)
            let lines =
              List.init n (fun t ->
                  let i = Option.get (List.find_index (( = ) (ninputs + t)) lo) in
                  { Straightline.comp = comps.(i); args = List.nth li i })
            in
            let p =
              Straightline.make ~width ~ninputs lines
                ~outputs:(List.init nloc Fun.id)
            in
            let table =
              Array.map (fun ins -> Array.of_list (Straightline.eval p ins)) inputs
            in
            for lout = 0 to nloc - 1 do
              let f =
                String.init (Array.length table) (fun r ->
                    Char.chr table.(r).(lout))
              in
              incr nall;
              Hashtbl.replace all f ();
              let env = Encode.location_env ~lo ~li ~lout:[ lout ] in
              if List.for_all (Bv.eval env) wfp then (
                incr ncanonical;
                Hashtbl.replace canonical f ())
            done)
          (product
             (List.map2
                (fun (c : Component.t) l -> tuples c.Component.arity l)
                lib lo)))
    (perms (List.init n (fun i -> ninputs + i)));
  let functions h = List.sort compare (List.of_seq (Hashtbl.to_seq_keys h)) in
  (functions all, !nall, functions canonical, !ncanonical)

let test_canonical_wirings_keep_every_function () =
  let libraries =
    List.map
      (fun b ->
        ( b.Ogis.Hd_suite.name,
          b.Ogis.Hd_suite.arity,
          b.Ogis.Hd_suite.library ~width:3 ))
      Ogis.Hd_suite.all
    @ [ ("fig8_p1", 2, Component.fig8_p1); ("fig8_p2", 1, Component.fig8_p2) ]
  in
  List.iter
    (fun (name, ninputs, lib) ->
      let all, nall, canonical, ncanonical = wiring_functions ~ninputs lib in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d functions kept" name (List.length all))
        true (all = canonical);
      let commutative =
        List.exists (fun (c : Component.t) -> c.Component.commutative) lib
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d of %d wirings canonical" name ncanonical nall)
        true
        (if commutative then ncanonical < nall else ncanonical = nall))
    libraries

(* ------------------------------------------------------------------ *)
(* Full loop                                                           *)
(* ------------------------------------------------------------------ *)

let check_equiv name spec prog spec_fn =
  match Synth.verify_against spec prog ~spec_fn with
  | Ok () -> ()
  | Error cex ->
    Alcotest.failf "%s: not equivalent, cex=%s" name
      (String.concat "," (List.map string_of_int cex))

let test_synthesize_turn_off_rightmost_bit () =
  (* Hacker's Delight: x & (x-1) with library {dec, and} *)
  let spec =
    {
      Encode.width = w;
      ninputs = 1;
      noutputs = 1;
      library = [ Component.dec; Component.and_ ];
    }
  in
  let oracle = function
    | [ x ] -> [ x land (x - 1) land 0xFFFF ]
    | _ -> assert false
  in
  match Synth.synthesize spec oracle with
  | Budget.Converged (Synth.Synthesized (prog, stats)) ->
    check_equiv "rightmost bit" spec prog (function
      | [ x ] -> [ Bv.band x (Bv.bsub x (Bv.const ~width:w 1)) ]
      | _ -> assert false);
    Alcotest.(check bool) "few oracle queries" true (stats.Synth.oracle_queries <= 16)
  | _ -> Alcotest.fail "synthesis failed"

let test_synthesize_isolate_rightmost_bit () =
  (* x & -x with library {neg, and} *)
  let spec =
    {
      Encode.width = w;
      ninputs = 1;
      noutputs = 1;
      library = [ Component.neg; Component.and_ ];
    }
  in
  let oracle = function
    | [ x ] -> [ x land -x land 0xFFFF ]
    | _ -> assert false
  in
  match Synth.synthesize spec oracle with
  | Budget.Converged (Synth.Synthesized (prog, _)) ->
    check_equiv "isolate bit" spec prog (function
      | [ x ] -> [ Bv.band x (Bv.bneg x) ]
      | _ -> assert false)
  | _ -> Alcotest.fail "synthesis failed"

let test_unrealizable () =
  (* xor cannot be expressed with one adder *)
  let spec =
    { Encode.width = w; ninputs = 2; noutputs = 1; library = [ Component.add ] }
  in
  let oracle = function
    | [ x; y ] -> [ x lxor y ]
    | _ -> assert false
  in
  match Synth.synthesize spec oracle with
  | Budget.Converged (Synth.Unrealizable _) -> ()
  | Budget.Converged (Synth.Synthesized (p, _)) ->
    Alcotest.failf "bogus program: %s" (Format.asprintf "%a" Straightline.pp p)
  | Budget.Exhausted _ -> Alcotest.fail "unbudgeted run exhausted"

let test_verify_against_cex () =
  let spec =
    { Encode.width = w; ninputs = 2; noutputs = 1; library = [ Component.add ] }
  in
  let prog =
    Straightline.make ~width:w ~ninputs:2
      [ { Straightline.comp = Component.add; args = [ 0; 1 ] } ]
      ~outputs:[ 2 ]
  in
  match
    Synth.verify_against spec prog ~spec_fn:(function
      | [ x; y ] -> [ Bv.bsub x y ]
      | _ -> assert false)
  with
  | Ok () -> Alcotest.fail "x+y is not x-y"
  | Error [ x; y ] ->
    Alcotest.(check bool) "cex separates" true
      ((x + y) land 0xFFFF <> (x - y) land 0xFFFF)
  | Error _ -> Alcotest.fail "bad cex arity"

(* ------------------------------------------------------------------ *)
(* Fig. 8 deobfuscation benchmarks                                     *)
(* ------------------------------------------------------------------ *)

(* the test suite runs Fig. 8 at width 8 to keep the uniqueness proofs
   small; the benchmark harness reproduces them at the full 16 bits *)
let w8 = 8

let test_fig8_p1 () =
  match
    Deob.run ~library:Component.fig8_p1 (B.interchange_obs_w ~width:w8)
  with
  | Error _ -> Alcotest.fail "P1 deobfuscation failed"
  | Ok r ->
    let spec =
      {
        Encode.width = w8;
        ninputs = 2;
        noutputs = 2;
        library = Component.fig8_p1;
      }
    in
    check_equiv "P1 swaps" spec r.Deob.clean (function
      | [ s; d ] -> [ d; s ]
      | _ -> assert false);
    Alcotest.(check int) "three lines" 3
      (List.length r.Deob.clean.Straightline.lines)

let test_fig8_p2 () =
  match
    Deob.run ~library:Component.fig8_p2 (B.multiply45_obs_w ~width:w8)
  with
  | Error _ -> Alcotest.fail "P2 deobfuscation failed"
  | Ok r ->
    let spec =
      {
        Encode.width = w8;
        ninputs = 1;
        noutputs = 1;
        library = Component.fig8_p2;
      }
    in
    check_equiv "P2 multiplies by 45" spec r.Deob.clean (function
      | [ y ] -> [ Bv.bmul y (Bv.const ~width:w8 45) ]
      | _ -> assert false)

let test_oracle_of_program () =
  let oracle = Deob.oracle_of_program B.multiply45_obs in
  Alcotest.(check (list int)) "oracle computes 45y" [ 45 * 7 ] (oracle [ 7 ])

(* ------------------------------------------------------------------ *)
(* Hacker's Delight suite                                              *)
(* ------------------------------------------------------------------ *)

let test_hd_suite () =
  List.iter
    (fun b ->
      let o = Ogis.Hd_suite.run b in
      (match o.Ogis.Hd_suite.result with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "%s: synthesis failed" b.Ogis.Hd_suite.name);
      Alcotest.(check bool)
        (b.Ogis.Hd_suite.name ^ " verified")
        true o.Ogis.Hd_suite.verified)
    Ogis.Hd_suite.all

let test_hd_results_match_reference () =
  (* sample the synthesized programs against the reference on inputs the
     loop never queried *)
  List.iter
    (fun b ->
      match (Ogis.Hd_suite.run b).Ogis.Hd_suite.result with
      | Error _ -> Alcotest.failf "%s failed" b.Ogis.Hd_suite.name
      | Ok (prog, _) ->
        List.iter
          (fun x ->
            let ins = List.init b.Ogis.Hd_suite.arity (fun i -> (x + i) land 0xFF) in
            Alcotest.(check (list int))
              (Printf.sprintf "%s on %d" b.Ogis.Hd_suite.name x)
              (b.Ogis.Hd_suite.reference ~width:8 ins)
              (Ogis.Straightline.eval prog ins))
          [ 3; 77; 128; 200; 255 ])
    Ogis.Hd_suite.all

let test_hd_budget_exhausts () =
  (* hd09 needs several distinguishing rounds at width 8 *)
  let b = Ogis.Hd_suite.find "hd09-xor-difference" in
  let o =
    Ogis.Hd_suite.run ~budget:(Budget.limited ~iterations:1 ()) b
  in
  match o.Ogis.Hd_suite.result with
  | Error (Budget.Exhausted { Synth.reason = Budget.Iterations; _ }) ->
    Alcotest.(check bool) "not verified" false o.Ogis.Hd_suite.verified
  | Error (Budget.Exhausted _) -> Alcotest.fail "exhausted for another reason"
  | Error (Budget.Converged _) | Ok _ ->
    Alcotest.fail "a 1-iteration budget must exhaust"

(* The OGIS search is deterministic, so the SAT conflicts of the whole
   suite at width 5 (synthesis plus the final equivalence check) are
   fixed counts. Canonical wirings more than halve them; a change that
   loses that symmetry breaking, or any other change to the encoding
   (asserted formulas' clauses included), the loop or the solver's
   search, moves them. The propagations of each job pin the search more
   finely still: a change to the solver's kernel that keeps every
   decision keeps them too. *)
let test_search_counts () =
  let counted name run =
    let g0 = Smt.Sat.global_stats () in
    if not (run ()) then Alcotest.failf "%s failed" name;
    let g1 = Smt.Sat.global_stats () in
    ( (name, g1.Smt.Sat.g_conflicts - g0.Smt.Sat.g_conflicts),
      (name, g1.Smt.Sat.g_propagations - g0.Smt.Sat.g_propagations) )
  in
  let width = 5 in
  let per_job, props_per_job =
    List.split
    @@
    List.map
      (fun b ->
        counted b.Ogis.Hd_suite.name (fun () ->
            (Ogis.Hd_suite.run ~width b).Ogis.Hd_suite.verified))
      Ogis.Hd_suite.all
    @ [
        counted "fig8-p1" (fun () ->
            Result.is_ok
              (Deob.run ~library:Component.fig8_p1
                 (B.interchange_obs_w ~width)));
        counted "fig8-p2" (fun () ->
            Result.is_ok
              (Deob.run ~library:Component.fig8_p2 (B.multiply45_obs_w ~width)));
      ]
  in
  Alcotest.(check (list (pair string int)))
    "conflicts per job"
    [
      ("hd01-turn-off-rightmost-1", 41); ("hd02-test-power-of-2-mask", 47);
      ("hd03-isolate-rightmost-1", 57); ("hd04-mask-trailing-0s", 128);
      ("hd05-propagate-rightmost-1", 57); ("hd06-turn-on-rightmost-0", 43);
      ("hd07-isolate-rightmost-0", 109); ("hd08-average-no-overflow", 1288);
      ("hd09-xor-difference", 401); ("hd10-not-equal-01", 299);
      ("fig8-p1", 689); ("fig8-p2", 575);
    ]
    per_job;
  Alcotest.(check (list (pair string int)))
    "propagations per job"
    [
      ("hd01-turn-off-rightmost-1", 2224); ("hd02-test-power-of-2-mask", 2569);
      ("hd03-isolate-rightmost-1", 2853); ("hd04-mask-trailing-0s", 8854);
      ("hd05-propagate-rightmost-1", 2598); ("hd06-turn-on-rightmost-0", 2448);
      ("hd07-isolate-rightmost-0", 8199); ("hd08-average-no-overflow", 167485);
      ("hd09-xor-difference", 43037); ("hd10-not-equal-01", 35889);
      ("fig8-p1", 58052); ("fig8-p2", 89591);
    ]
    props_per_job;
  (* 13086 with the unordered encoding, 5422 when every assertion was
     the unit clause of one Tseitin literal, 3721 when the level-0 sweep
     ran before every solve *)
  Alcotest.(check int) "total conflicts" 3734
    (List.fold_left (fun acc (_, c) -> acc + c) 0 per_job)

let test_hd_find () =
  Alcotest.(check string) "lookup" "hd03-isolate-rightmost-1"
    (Ogis.Hd_suite.find "hd03-isolate-rightmost-1").Ogis.Hd_suite.name;
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Ogis.Hd_suite.find "hd99"))

let () =
  Alcotest.run "ogis"
    [
      ( "straightline",
        [
          Alcotest.test_case "eval xor swap" `Quick test_straightline_eval;
          Alcotest.test_case "validation" `Quick test_straightline_validation;
          Alcotest.test_case "pretty printing" `Quick test_straightline_pp;
        ] );
      ( "encode",
        [
          Alcotest.test_case "location width" `Quick test_loc_width;
          Alcotest.test_case "candidate consistent with examples" `Quick
            test_synthesize_candidate_consistent;
          Alcotest.test_case "contradictory examples rejected" `Quick
            test_synthesize_candidate_none;
          Alcotest.test_case "distinguishing input exists" `Quick
            test_distinguishing_input;
          Alcotest.test_case "canonical wirings keep every function" `Quick
            test_canonical_wirings_keep_every_function;
        ] );
      ( "loop",
        [
          Alcotest.test_case "x & (x-1)" `Quick
            test_synthesize_turn_off_rightmost_bit;
          Alcotest.test_case "x & -x" `Quick test_synthesize_isolate_rightmost_bit;
          Alcotest.test_case "unrealizable reported" `Quick test_unrealizable;
          Alcotest.test_case "verify_against counterexample" `Quick
            test_verify_against_cex;
        ] );
      ( "fig8",
        [
          Alcotest.test_case "oracle wrapper" `Quick test_oracle_of_program;
          Alcotest.test_case "P1 interchange" `Quick test_fig8_p1;
          Alcotest.test_case "P2 multiply45" `Quick test_fig8_p2;
        ] );
      ( "hackers-delight",
        [
          Alcotest.test_case "all benchmarks synthesize + verify" `Quick
            test_hd_suite;
          Alcotest.test_case "results match references pointwise" `Quick
            test_hd_results_match_reference;
          Alcotest.test_case "lookup" `Quick test_hd_find;
          Alcotest.test_case "budget exhausts typed" `Quick
            test_hd_budget_exhausts;
          Alcotest.test_case "search counts" `Quick test_search_counts;
        ] );
    ]
