(* Tests for the benchmark itself: seeded streams, repeatable counters,
   and verdict checks that catch wrong answers. *)

module S = Jobstream
module J = Server.Jobs

let describe_blocks draw ~seed ~workload n =
  let r = S.rng ~seed workload in
  List.concat (List.init n (fun _ -> Array.to_list (Array.map S.describe (draw r))))

let served ~seed n =
  let g = S.serve_gen ~seed ~clients:2 () in
  List.init n (fun _ -> S.next g)

let render (it : S.item) =
  Printf.sprintf "%d %s %s" it.index (S.role_name it.role) (S.describe (S.Spec it.spec))

let test_streams_seeded () =
  let check name draw =
    let a = describe_blocks draw ~seed:5 ~workload:name 3 in
    Alcotest.(check (list string)) (name ^ ": same seed") a
      (describe_blocks draw ~seed:5 ~workload:name 3);
    Alcotest.(check bool) (name ^ ": other seed differs") true
      (a <> describe_blocks draw ~seed:6 ~workload:name 3)
  in
  check "synth" S.synth_block;
  check "verify" S.verify_block;
  let a = List.map render (served ~seed:5 60) in
  Alcotest.(check (list string)) "serve: same seed" a (List.map render (served ~seed:5 60));
  Alcotest.(check bool) "serve: other seed differs" true
    (a <> List.map render (served ~seed:6 60))

(* every repeat or revisit names a job at least [clients] positions back;
   cold specs are new; revisits keep the family and deepen *)
let test_served_stream_shape () =
  (* longer than any run: the cold strata must never run out of specs *)
  let items = Array.of_list (served ~seed:9 40000) in
  let seen = Hashtbl.create 512 in
  let roles = Hashtbl.create 3 in
  Array.iter
    (fun (it : S.item) ->
      Hashtbl.replace roles it.role ();
      (match it.role, it.after with
      | S.Cold, None ->
        Alcotest.(check bool) "cold spec is new" false (Hashtbl.mem seen (J.key it.spec))
      | S.Repeat, Some i ->
        Alcotest.(check bool) "repeat reaches back" true (it.index - i >= 2);
        Alcotest.(check string) "repeat names the same job" (J.key items.(i).spec)
          (J.key it.spec)
      | S.Warm, Some i -> (
        Alcotest.(check bool) "revisit reaches back" true (it.index - i >= 2);
        Alcotest.(check string) "same family" (J.family items.(i).spec) (J.family it.spec);
        Alcotest.(check bool) "new key" false (Hashtbl.mem seen (J.key it.spec));
        match it.spec, items.(i).spec with
        | J.Bmc a, J.Bmc b ->
          Alcotest.(check bool) "deeper" true (a.max_depth > b.max_depth)
        | _ -> Alcotest.fail "revisit of a non-BMC job")
      | _ -> Alcotest.fail "role and dependency disagree");
      Hashtbl.replace seen (J.key it.spec) ())
    items;
  Alcotest.(check int) "all three roles occur" 3 (Hashtbl.length roles)

let counted = [ "sat.conflicts"; "sat.propagations"; "tseitin.clauses" ]

(* one fresh-process-like run of a stream prefix: global caches cleared *)
let counts jobs =
  Smt.Cnfcache.clear ();
  Obs.Metrics.reset ();
  List.iter
    (fun job ->
      match Runner.check job (Runner.run job) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (S.describe job) e)
    jobs;
  let snap = Obs.Metrics.snapshot () in
  List.map
    (fun c ->
      match List.assoc_opt c snap with Some (Obs.Metrics.Counter v) -> v | _ -> 0)
    counted

let test_counts_repeat () =
  let prefix draw workload n =
    List.filteri (fun i _ -> i < n) (Array.to_list (draw (S.rng ~seed:11 workload)))
  in
  List.iter
    (fun (workload, jobs) ->
      let a = counts jobs in
      Alcotest.(check (list int)) (workload ^ ": counters repeat") a (counts jobs);
      Alcotest.(check bool) (workload ^ ": solver did work") true (List.hd a > 0))
    [ ("synth", prefix S.synth_block "synth" 6); ("verify", prefix S.verify_block "verify" 9) ]

let expect_error what = function
  | Ok () -> Alcotest.failf "%s: a wrong answer passed its check" what
  | Error _ -> ()

let test_planted_wrong_answers () =
  let hd = S.Hd { name = "hd01-turn-off-rightmost-1"; width = 4 } in
  (match Runner.run hd with
  | Runner.Program p as answer ->
    Alcotest.(check bool) "right answer passes" true (Runner.check hd answer = Ok ());
    expect_error "program checked against another benchmark"
      (Check.hd ~name:"hd03-isolate-rightmost-1" ~width:4 p)
  | _ -> Alcotest.fail "hd01 did not synthesize");
  let unsafe =
    J.Bmc
      { system = { shift = None; junk = 2; bits = 3; modulus = 6; bad_value = 4 };
        max_depth = 10 }
  in
  expect_error "planted SAFE for an unsafe counter"
    (Check.spec unsafe ~verdict:"SAFE within depth 10" ~code:0);
  Alcotest.(check bool) "true verdict passes" true
    (Check.spec unsafe ~verdict:"UNSAFE: counterexample of 4 steps at depth 4" ~code:1 = Ok ());
  let timing = J.Timing { source = None; bits = 4; tau = None } in
  (match Runner.run (S.Spec timing) with
  | Runner.Verdict { verdict; code } ->
    Alcotest.(check bool) "timing passes" true (Check.spec timing ~verdict ~code = Ok ());
    let wcet = Scanf.sscanf verdict "WCET %d" Fun.id in
    let planted =
      Printf.sprintf "WCET %d%s" (wcet - 1)
        (String.sub verdict (String.length (Printf.sprintf "WCET %d" wcet))
           (String.length verdict - String.length (Printf.sprintf "WCET %d" wcet)))
    in
    expect_error "planted WCET" (Check.spec timing ~verdict:planted ~code)
  | _ -> Alcotest.fail "timing job failed");
  expect_error "planted state count"
    (Check.spec (J.Lstar { states = 6 }) ~verdict:"learned 5-state DFA in 2 rounds" ~code:0);
  expect_error "a failed job" (Runner.check hd (Runner.Failed "budget exhausted"))

let () =
  Alcotest.run "perfbench"
    [
      ( "streams",
        [
          Alcotest.test_case "seeded" `Quick test_streams_seeded;
          Alcotest.test_case "served stream shape" `Quick test_served_stream_shape;
        ] );
      ( "runs",
        [
          Alcotest.test_case "counters repeat for a seed" `Quick test_counts_repeat;
          Alcotest.test_case "planted wrong answers fail" `Quick test_planted_wrong_answers;
        ] );
    ]
