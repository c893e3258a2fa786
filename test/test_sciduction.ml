(* Tests for the sciduction library: soundness reports, decision trees,
   Table 1 rendering, and a worked OGIS instance run by the loop
   driver. *)

module Soundness = Sciduction.Soundness
module Instances = Sciduction.Instances

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Soundness                                                           *)
(* ------------------------------------------------------------------ *)

let test_conclude () =
  let r =
    Soundness.conclude ~hypothesis:"guards are hyperboxes"
      (Soundness.Proved "monotone dynamics on a finite grid")
  in
  Alcotest.(check bool) "sound conclusion" true (contains r.Soundness.conclusion "sound");
  let r =
    Soundness.conclude ~hypothesis:"library sufficient"
      (Soundness.Refuted "cex found")
  in
  Alcotest.(check bool) "warns" true
    (contains r.Soundness.conclusion "invalid")

let test_run_test () =
  let ok = Soundness.run_test ~hypothesis:"h" ~method_:"equivalence check" (fun () -> Ok ()) in
  (match ok.Soundness.validity with
  | Soundness.Tested { passed = true; _ } -> ()
  | _ -> Alcotest.fail "expected passed test");
  let bad =
    Soundness.run_test ~hypothesis:"h" ~method_:"equivalence check" (fun () ->
        Error [ 1; 2 ])
  in
  match bad.Soundness.validity with
  | Soundness.Tested { passed = false; _ } -> ()
  | _ -> Alcotest.fail "expected failed test"

(* ------------------------------------------------------------------ *)
(* Decision trees                                                      *)
(* ------------------------------------------------------------------ *)

module Dtree = Sciduction.Dtree

let all_inputs n =
  List.init (1 lsl n) (fun code ->
      Array.init n (fun i -> code land (1 lsl i) <> 0))

let learn_fn n f =
  let examples = List.map (fun x -> (x, f x)) (all_inputs n) in
  (Dtree.learn ~nfeatures:n examples, examples)

let test_dtree_learns_exactly () =
  List.iter
    (fun (name, n, f) ->
      let tree, examples = learn_fn n f in
      Alcotest.(check (float 1e-9)) (name ^ " accuracy") 1.0
        (Dtree.training_accuracy tree examples))
    [
      ("single feature", 3, fun x -> x.(1));
      ("and", 2, fun x -> x.(0) && x.(1));
      ("xor", 2, fun x -> x.(0) <> x.(1));
      ("majority of 3", 3, fun x ->
        (if x.(0) then 1 else 0) + (if x.(1) then 1 else 0)
        + (if x.(2) then 1 else 0)
        >= 2);
    ]

let test_dtree_ignores_irrelevant_features () =
  (* only feature 2 matters; the tree should use just that one *)
  let tree, _ = learn_fn 5 (fun x -> x.(2)) in
  Alcotest.(check (list int)) "features used" [ 2 ] (Dtree.features_used tree);
  Alcotest.(check int) "depth 1" 1 (Dtree.depth tree)

let test_dtree_constant_labels () =
  let tree, _ = learn_fn 3 (fun _ -> true) in
  Alcotest.(check int) "single leaf" 1 (Dtree.size tree);
  Alcotest.(check bool) "classifies true" true
    (Dtree.classify tree [| false; true; false |])

let test_dtree_majority_on_contradictions () =
  (* identical inputs with conflicting labels: majority wins *)
  let x = [| true |] in
  let tree = Dtree.learn ~nfeatures:1 [ (x, true); (x, true); (x, false) ] in
  Alcotest.(check bool) "majority" true (Dtree.classify tree x)

let test_dtree_max_depth () =
  (* xor over 4 features needs depth 4; cap at 2 and check it respects it *)
  let f x = x.(0) <> x.(1) <> x.(2) <> x.(3) in
  let examples = List.map (fun x -> (x, f x)) (all_inputs 4) in
  let tree = Dtree.learn ~nfeatures:4 ~max_depth:2 examples in
  Alcotest.(check bool) "depth capped" true (Dtree.depth tree <= 2)

(* ------------------------------------------------------------------ *)
(* Instances and Table 1                                               *)
(* ------------------------------------------------------------------ *)

let test_table1 () =
  Alcotest.(check int) "three applications" 3 (List.length Instances.table1);
  Alcotest.(check int) "three 2.4 instances" 3 (List.length Instances.section24);
  let rendered = Format.asprintf "%a" Instances.pp_table Instances.table1 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains rendered needle))
    [ "Timing analysis"; "hyperboxes"; "distinguishing inputs"; "SMT" ]

(* a live instance: OGIS on the paper's P2 benchmark, at width 8. H is
   the loop-free programs over {shl2, shl3, add, add}, I learns from
   distinguishing inputs, D is the SMT solver; the loop driver runs it
   and, traced, records the time D took. *)
let test_live_ogis_instance () =
  let width = 8 in
  let spec =
    {
      Ogis.Encode.width;
      ninputs = 1;
      noutputs = 1;
      library = Ogis.Component.fig8_p2;
    }
  in
  let queries = ref 0 in
  let oracle ins =
    incr queries;
    Ogis.Deobfuscate.oracle_of_program
      (Prog.Benchmarks.multiply45_obs_w ~width)
      ins
  in
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  let outcome =
    Ogis.Synth.synthesize ~initial_inputs:[ [ 0 ]; [ 1 ] ] spec oracle
  in
  Obs.shutdown ();
  let records = records () in
  Obs.reset ();
  (match outcome with
  | Budget.Converged (Ogis.Synth.Synthesized (p, _)) ->
    Alcotest.(check bool) "artifact in C_H" true
      (List.length p.Ogis.Straightline.lines = 4);
    Alcotest.(check (list int)) "computes 45y" [ (45 * 3) land 0xFF ]
      (Ogis.Straightline.eval p [ 3 ])
  | _ -> Alcotest.fail "instance failed to synthesize");
  Alcotest.(check bool) "oracle was consulted" true (!queries > 0);
  let attr k r =
    Option.bind (Obs.Json.member "attrs" r) (fun a ->
        Option.bind (Obs.Json.member k a) Obs.Json.to_float)
  in
  match
    List.filter
      (fun r ->
        Option.bind (Obs.Json.member "name" r) Obs.Json.to_str
        = Some "loop_finished")
      records
  with
  | [ r ] -> (
    match (attr "deduce_ms" r, attr "elapsed" r) with
    | Some d, Some e ->
      Alcotest.(check bool) "D took time" true (d > 0.0);
      Alcotest.(check bool) "D within the loop's wall time" true
        (d <= 1000.0 *. e)
    | _ -> Alcotest.fail "loop_finished without deduce_ms and elapsed")
  | _ -> Alcotest.fail "one loop_finished"

let () =
  Alcotest.run "sciduction"
    [
      ( "soundness",
        [
          Alcotest.test_case "conclude" `Quick test_conclude;
          Alcotest.test_case "run_test" `Quick test_run_test;
        ] );
      ( "dtree",
        [
          Alcotest.test_case "learns boolean functions exactly" `Quick
            test_dtree_learns_exactly;
          Alcotest.test_case "ignores irrelevant features" `Quick
            test_dtree_ignores_irrelevant_features;
          Alcotest.test_case "constant labels" `Quick test_dtree_constant_labels;
          Alcotest.test_case "majority on contradictions" `Quick
            test_dtree_majority_on_contradictions;
          Alcotest.test_case "max depth respected" `Quick test_dtree_max_depth;
        ] );
      ( "instances",
        [
          Alcotest.test_case "table 1" `Quick test_table1;
          Alcotest.test_case "live OGIS instance" `Quick test_live_ogis_instance;
        ] );
    ]
