(* Tests for the program substrate: interpreter vs reference semantics,
   loop unrolling, CFG path enumeration, symbolic execution and SMT-backed
   test generation. *)

module Bv = Smt.Bv
module Lang = Prog.Lang
module Interp = Prog.Interp
module Unroll = Prog.Unroll
module Cfg = Prog.Cfg
module Paths = Prog.Paths
module Symexec = Prog.Symexec
module Testgen = Prog.Testgen
module B = Prog.Benchmarks

let out1 p inputs =
  match Interp.run p inputs with
  | [ (_, value) ] -> value
  | other ->
    Alcotest.failf "expected one output, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let test_toy () =
  Alcotest.(check int) "flag=0" 13 (out1 B.toy [ ("flag", 0); ("x", 10) ]);
  Alcotest.(check int) "flag=1" 12 (out1 B.toy [ ("flag", 1); ("x", 10) ])

let test_modexp_against_reference () =
  let p = B.modexp () in
  List.iter
    (fun (base, exp) ->
      Alcotest.(check int)
        (Printf.sprintf "modexp %d^%d" base exp)
        (B.modexp_reference ~base ~exp ())
        (out1 p [ ("base", base); ("exp", exp) ]))
    [ (2, 0); (2, 1); (2, 255); (3, 100); (7, 77); (250, 255); (123, 200) ]

let test_multiply45_obs () =
  List.iter
    (fun y ->
      Alcotest.(check int)
        (Printf.sprintf "45 * %d" y)
        (Bv.truncate ~width:16 (45 * y))
        (out1 B.multiply45_obs [ ("y", y) ]);
      Alcotest.(check int)
        (Printf.sprintf "clean 45 * %d" y)
        (Bv.truncate ~width:16 (45 * y))
        (out1 B.multiply45 [ ("y", y) ]))
    [ 0; 1; 2; 17; 100; 1000; 65535 ]

let test_interchange_obs () =
  List.iter
    (fun (s, d) ->
      let check p =
        match Interp.run p [ ("src", s); ("dest", d) ] with
        | [ ("src", s'); ("dest", d') ] ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s swaps (%d,%d)" p.Lang.name s d)
            (d, s) (s', d')
        | _ -> Alcotest.fail "bad outputs"
      in
      check B.interchange_obs;
      check B.interchange)
    [ (0, 0); (1, 2); (42, 42); (65535, 1); (12345, 54321) ]

let test_trace_branches () =
  (* bitcount over 4 bits: the loop latch test runs per iteration plus
     the guard; each iteration also records the bit test *)
  let p = B.bitcount () in
  let tr = Interp.trace_branches p [ ("x", 0b0101) ] in
  (* guard (true), then per iteration: bit test + latch test *)
  Alcotest.(check int) "branch count" 9 (List.length tr);
  let bit_tests =
    (* entries 1,3,5,7 are the bit tests for bits 0..3 *)
    List.filteri (fun i _ -> i mod 2 = 1) tr
  in
  Alcotest.(check (list bool)) "bit pattern observed"
    [ true; false; true; false ] bit_tests

let test_interp_fuel () =
  let p =
    Lang.make ~name:"loop" ~width:8 ~inputs:[] ~outputs:[]
      [ Lang.While (Bv.tru, []) ]
  in
  Alcotest.check_raises "fuel exhausted" Interp.Out_of_fuel (fun () ->
      ignore (Interp.run ~fuel:10 p []))

let test_interp_assume () =
  let p =
    Lang.make ~name:"assume" ~width:8 ~inputs:[ "x" ] ~outputs:[]
      [ Lang.Assume (Bv.eq (Bv.var ~width:8 "x") (Bv.const ~width:8 1)) ]
  in
  ignore (Interp.run p [ ("x", 1) ]);
  Alcotest.check_raises "assumption failure" Interp.Assumption_failed (fun () ->
      ignore (Interp.run p [ ("x", 2) ]))

let prop_modexp_matches_reference =
  QCheck2.Test.make ~name:"interp modexp = reference modexp" ~count:200
    ~print:(fun (b, e) -> Printf.sprintf "base=%d exp=%d" b e)
    QCheck2.Gen.(pair (int_range 0 65535) (int_range 0 255))
    (fun (base, exp) ->
      out1 (B.modexp ()) [ ("base", base); ("exp", exp) ]
      = B.modexp_reference ~base ~exp ())

let prop_multiply45 =
  QCheck2.Test.make ~name:"obfuscated and clean multiply45 agree" ~count:200
    ~print:string_of_int
    QCheck2.Gen.(int_range 0 65535)
    (fun y ->
      out1 B.multiply45_obs [ ("y", y) ] = out1 B.multiply45 [ ("y", y) ])

let prop_interchange =
  QCheck2.Test.make ~name:"obfuscated and clean interchange agree" ~count:200
    ~print:(fun (s, d) -> Printf.sprintf "src=%d dest=%d" s d)
    QCheck2.Gen.(pair (int_range 0 65535) (int_range 0 65535))
    (fun (s, d) ->
      Interp.run B.interchange_obs [ ("src", s); ("dest", d) ]
      = Interp.run B.interchange [ ("src", s); ("dest", d) ])

(* ------------------------------------------------------------------ *)
(* Unrolling and CFG                                                   *)
(* ------------------------------------------------------------------ *)

let test_unroll_loop_free () =
  let p = Unroll.unroll ~bound:8 (B.modexp ()) in
  Alcotest.(check bool) "loop free" true (Lang.is_loop_free p);
  Alcotest.(check bool)
    "original has loop" false
    (Lang.is_loop_free (B.modexp ()))

let test_unroll_preserves_semantics () =
  let p = B.modexp () and u = Unroll.unroll ~bound:8 (B.modexp ()) in
  List.iter
    (fun (base, exp) ->
      let inputs = [ ("base", base); ("exp", exp) ] in
      Alcotest.(check int)
        (Printf.sprintf "unrolled modexp %d^%d" base exp)
        (out1 p inputs) (out1 u inputs))
    [ (2, 255); (3, 100); (17, 0); (251, 137) ]

let test_unroll_cuts_paths () =
  (* under-unrolling makes complete executions violate the Assume *)
  let u = Unroll.unroll ~bound:3 (B.modexp ()) in
  Alcotest.check_raises "cut path" Interp.Assumption_failed (fun () ->
      ignore (Interp.run u [ ("base", 2); ("exp", 255) ]))

let test_cfg_structure () =
  let u = Unroll.unroll ~bound:4 (B.bitcount ()) in
  let g = Cfg.of_program u in
  (* structurally, exit is possible after 0..4 iterations of the loop,
     with a diamond per completed iteration: 1 + 2 + 4 + 8 + 16 = 31
     paths; the counter [i] is a constant at every loop test, so only
     the exit after all 4 iterations stays live: 16 paths *)
  Alcotest.(check int) "live path count" 16 (Paths.count g);
  Alcotest.(check int)
    "enumeration matches count" 16
    (List.length (List.of_seq (Paths.enumerate g)))

let test_cfg_rejects_loops () =
  Alcotest.check_raises "loops rejected"
    (Invalid_argument "Cfg.of_program: program contains a loop") (fun () ->
      ignore (Cfg.of_program (B.modexp ())))

let test_path_vectors () =
  let u = Unroll.unroll ~bound:2 (B.bitcount ~bits:2 ()) in
  let g = Cfg.of_program u in
  Paths.enumerate g
  |> Seq.iter (fun path ->
         let v = Paths.vector g path in
         Alcotest.(check int)
           "vector weight = path length" (List.length path)
           (Array.fold_left ( + ) 0 v);
         match Paths.of_vector g v with
         | Some path' -> Alcotest.(check (list int)) "roundtrip" path path'
         | None -> Alcotest.fail "of_vector failed")

(* ------------------------------------------------------------------ *)
(* Symbolic execution and test generation                              *)
(* ------------------------------------------------------------------ *)

let test_feasible_counts () =
  let u = Unroll.unroll ~bound:4 (B.bitcount ()) in
  let g = Cfg.of_program u in
  let feasible =
    Paths.enumerate g
    |> Seq.filter (fun path ->
           match Testgen.feasible u g path with
           | `Test _ -> true
           | `Infeasible | `Unknown _ -> false)
    |> List.of_seq
  in
  (* only complete 4-iteration executions are feasible: one per bit mask *)
  Alcotest.(check int) "feasible paths" 16 (List.length feasible)

let test_testgen_drives_path () =
  let u = Unroll.unroll ~bound:4 (B.bitcount ()) in
  let g = Cfg.of_program u in
  Paths.enumerate g
  |> Seq.iter (fun path ->
         match Testgen.feasible u g path with
         | `Infeasible | `Unknown _ -> ()
         | `Test inputs ->
           Alcotest.(check bool)
             "generated test drives its path" true
             (Testgen.check_drives u g path inputs))

let test_symexec_outputs_match_interp () =
  let u = Unroll.unroll ~bound:4 (B.bitcount ()) in
  let g = Cfg.of_program u in
  Paths.enumerate g
  |> Seq.iter (fun path ->
         match Testgen.feasible u g path with
         | `Infeasible | `Unknown _ -> ()
         | `Test inputs ->
           let r = Symexec.exec u g path in
           let env = Bv.env_of_alist inputs in
           let symbolic =
             List.map
               (fun (x, t) -> (x, Bv.eval_term env t))
               (Symexec.output_terms u r)
           in
           Alcotest.(check (list (pair string int)))
             "symbolic outputs = concrete outputs" (Interp.run u inputs)
             symbolic)

let test_modexp_path_space () =
  let u = Unroll.unroll ~bound:8 (B.modexp ()) in
  let g = Cfg.of_program u in
  (* 511 structural paths, of which the 256 that run all 8 iterations
     are live (the early exits test a constant counter) *)
  Alcotest.(check int) "live" 256 (Paths.count g);
  let all = List.of_seq (Paths.enumerate g) in
  let feasible =
    List.filter
      (fun p ->
        match Testgen.feasible u g p with
        | `Test _ -> true
        | `Infeasible | `Unknown _ -> false)
      all
  in
  Alcotest.(check int) "feasible = 2^8" 256 (List.length feasible)

(* ------------------------------------------------------------------ *)
(* Concrete syntax                                                     *)
(* ------------------------------------------------------------------ *)

module Syntax = Prog.Syntax

let modexp_source =
  {|
// square-and-multiply modular exponentiation
program modexp (base, exp) -> (result) width 16 {
  result := 1;
  b := base % 251;
  i := 0;
  while (i < 8) {
    if (((exp >> i) & 1) == 1) {
      result := (result * b) % 251;
    }
    b := (b * b) % 251;
    i := i + 1;
  }
}
|}

let test_parse_modexp () =
  let p = Syntax.parse modexp_source in
  Alcotest.(check string) "name" "modexp" p.Lang.name;
  Alcotest.(check int) "width" 16 p.Lang.width;
  (* behaves exactly like the library's modexp *)
  List.iter
    (fun (base, exp) ->
      let inputs = [ ("base", base); ("exp", exp) ] in
      Alcotest.(check int)
        (Printf.sprintf "%d^%d" base exp)
        (out1 (B.modexp ()) inputs)
        (out1 p inputs))
    [ (2, 255); (123, 77); (250, 128) ]

let test_roundtrip_benchmarks () =
  List.iter
    (fun p ->
      let p' = Syntax.parse (Syntax.to_string p) in
      if p <> p' then
        Alcotest.failf "%s: print/parse changed the program:@.%s" p.Lang.name
          (Syntax.to_string p'))
    [
      B.toy;
      B.modexp ();
      B.bitcount ();
      B.interchange_obs;
      B.multiply45_obs;
      B.multiply45;
      B.deceptive ();
    ]

let test_parse_precedence () =
  let prog body = Printf.sprintf "program p (a) -> (x) width 8 { %s }" body in
  let first_assign src =
    match (Syntax.parse (prog src)).Lang.body with
    | [ Lang.Assign (_, e) ] -> e
    | _ -> Alcotest.fail "expected one assignment"
  in
  (* constant folding makes precedence directly observable *)
  Alcotest.(check bool) "mul binds tighter than add" true
    (first_assign "x := 1 + 2 * 3;" = Smt.Bv.const ~width:8 7);
  Alcotest.(check bool) "parens" true
    (first_assign "x := (1 + 2) * 3;" = Smt.Bv.const ~width:8 9);
  Alcotest.(check bool) "shift binds looser than add" true
    (first_assign "x := 1 << 2 + 3;" = Smt.Bv.const ~width:8 32);
  Alcotest.(check bool) "unary minus" true
    (first_assign "x := -1;" = Smt.Bv.const ~width:8 255)

let test_parse_constructs () =
  let p =
    Syntax.parse
      {|program p (a) -> (x) width 8 {
          assume (a != 0);
          if (a < 10 && !(a == 3)) { x := (a == 5 ? 1 : 2); } else { skip; }
        }|}
  in
  Alcotest.(check int) "two statements" 2 (List.length p.Lang.body);
  Alcotest.(check (list int))
    "ite picks 1" [ 1 ]
    (List.map snd (Interp.run p [ ("a", 5) ]));
  Alcotest.(check (list int))
    "ite picks 2" [ 2 ]
    (List.map snd (Interp.run p [ ("a", 4) ]))

let test_parse_errors () =
  let bad src expected_line =
    match Syntax.parse src with
    | exception Syntax.Parse_error { line; _ } ->
      Alcotest.(check int) ("line of " ^ src) expected_line line
    | _ -> Alcotest.failf "accepted %S" src
  in
  bad "program p () -> () width 8 { @ }" 1;
  bad "program p () -> () width 8 {\n  x = 1;\n}" 2;
  bad "program p () -> () width 99 { }" 1;
  bad "program p () -> () width 8 { } trailing" 1

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "prog"
    [
      ( "interp",
        [
          Alcotest.test_case "toy program (fig 4)" `Quick test_toy;
          Alcotest.test_case "modexp vs reference" `Quick
            test_modexp_against_reference;
          Alcotest.test_case "multiply45 obfuscated" `Quick test_multiply45_obs;
          Alcotest.test_case "interchange obfuscated" `Quick
            test_interchange_obs;
          Alcotest.test_case "branch traces" `Quick test_trace_branches;
          Alcotest.test_case "fuel" `Quick test_interp_fuel;
          Alcotest.test_case "assume" `Quick test_interp_assume;
        ] );
      ( "interp-qcheck",
        qsuite [ prop_modexp_matches_reference; prop_multiply45; prop_interchange ]
      );
      ( "unroll",
        [
          Alcotest.test_case "produces loop-free code" `Quick
            test_unroll_loop_free;
          Alcotest.test_case "preserves semantics" `Quick
            test_unroll_preserves_semantics;
          Alcotest.test_case "cuts over-bound paths" `Quick
            test_unroll_cuts_paths;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "path counting" `Quick test_cfg_structure;
          Alcotest.test_case "rejects loops" `Quick test_cfg_rejects_loops;
          Alcotest.test_case "path vectors roundtrip" `Quick test_path_vectors;
        ] );
      ( "syntax",
        [
          Alcotest.test_case "parse modexp source" `Quick test_parse_modexp;
          Alcotest.test_case "print/parse roundtrip on benchmarks" `Quick
            test_roundtrip_benchmarks;
          Alcotest.test_case "operator precedence" `Quick test_parse_precedence;
          Alcotest.test_case "assume / ite / skip / else" `Quick
            test_parse_constructs;
          Alcotest.test_case "errors carry line numbers" `Quick
            test_parse_errors;
        ] );
      ( "symexec",
        [
          Alcotest.test_case "feasible path count (bitcount)" `Quick
            test_feasible_counts;
          Alcotest.test_case "generated tests drive their paths" `Quick
            test_testgen_drives_path;
          Alcotest.test_case "symbolic outputs match interpreter" `Quick
            test_symexec_outputs_match_interp;
          Alcotest.test_case "modexp path space (256 feasible)" `Slow
            test_modexp_path_space;
        ] );
    ]
