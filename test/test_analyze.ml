(* Tests for the trace-analysis module: ingestion, convergence
   diagnostics on synthetic loops (converging, thrashing, truncated),
   span flame profiles, the cross-trace diff, and an end-to-end traced
   OGIS run analyzed straight from the memory sink. *)

module Json = Obs.Json
module Analyze = Obs.Analyze

(* ------------------------------------------------------------------ *)
(* synthetic record builders                                           *)
(* ------------------------------------------------------------------ *)

let ev ?(attrs = []) t name loop =
  Json.Obj
    [
      ("t", Json.Float t);
      ("kind", Json.String "event");
      ("name", Json.String name);
      ("loop", Json.String loop);
      ("attrs", Json.Obj attrs);
    ]

let span t name dur depth =
  Json.Obj
    [
      ("t", Json.Float t);
      ("kind", Json.String "span");
      ("name", Json.String name);
      ("dur", Json.Float dur);
      ("depth", Json.Int depth);
      ("attrs", Json.Obj []);
    ]

let snap t = Json.Obj [ ("t", Json.Float t); ("kind", Json.String "metrics"); ("metrics", Json.Obj []) ]

let parse_all js =
  List.map
    (fun j ->
      match Analyze.record_of_json j with
      | Ok r -> r
      | Error msg -> Alcotest.fail msg)
    js

(* a loop whose per-iteration durations are given by [durs]: iteration k
   starts when iteration k-1's duration has elapsed, and loop_finished
   closes the last one *)
let loop_trace ?(loop = "demo") ?(outcome = "done") durs =
  let started = ev 0.0 "loop_started" loop in
  let rec go t k acc = function
    | [] -> (t, List.rev acc)
    | d :: rest ->
      go (t +. d) (k + 1)
        (ev t "iteration" loop ~attrs:[ ("index", Json.Int k) ] :: acc)
        rest
  in
  let t_end, iters = go 0.0 0 [] durs in
  let finished =
    ev t_end "loop_finished" loop
      ~attrs:
        [ ("elapsed", Json.Float t_end); ("outcome", Json.String outcome) ]
  in
  (started :: iters) @ [ finished; snap (t_end +. 0.001) ]

let the_loop a =
  match a.Analyze.a_loops with
  | [ lr ] -> lr
  | loops ->
    Alcotest.fail (Printf.sprintf "expected one loop run, got %d"
                     (List.length loops))

(* ------------------------------------------------------------------ *)
(* convergence diagnostics                                             *)
(* ------------------------------------------------------------------ *)

let test_converging_loop () =
  let a =
    Analyze.analyze (parse_all (loop_trace [ 1.6; 0.8; 0.4; 0.2; 0.1 ]))
  in
  let lr = the_loop a in
  Alcotest.(check int) "iterations" 5 (List.length lr.Analyze.lr_iterations);
  Alcotest.(check string) "trend" "converging"
    (Analyze.trend_to_string lr.Analyze.lr_trend);
  Alcotest.(check bool) "negative slope" true (lr.Analyze.lr_slope_ms < 0.0);
  Alcotest.(check string) "outcome" "done" lr.Analyze.lr_outcome;
  Alcotest.(check bool) "not truncated" false lr.Analyze.lr_truncated;
  Alcotest.(check bool) "complete" true a.Analyze.a_complete;
  (* iteration durations were recovered from the event gaps *)
  let durs = List.map (fun i -> i.Analyze.it_dur) lr.Analyze.lr_iterations in
  List.iter2
    (fun got want -> Alcotest.(check (float 1e-9)) "dur" want got)
    durs
    [ 1.6; 0.8; 0.4; 0.2; 0.1 ]

let test_thrashing_loop () =
  let a =
    Analyze.analyze (parse_all (loop_trace [ 0.1; 0.2; 0.4; 0.8; 1.6 ]))
  in
  let lr = the_loop a in
  Alcotest.(check string) "trend" "thrashing"
    (Analyze.trend_to_string lr.Analyze.lr_trend);
  Alcotest.(check bool) "positive slope" true (lr.Analyze.lr_slope_ms > 0.0)

let test_steady_loop () =
  (* mild linear growth must NOT read as thrashing *)
  let a =
    Analyze.analyze (parse_all (loop_trace [ 0.10; 0.11; 0.12; 0.13; 0.14 ]))
  in
  Alcotest.(check string) "trend" "steady"
    (Analyze.trend_to_string (the_loop a).Analyze.lr_trend)

let test_truncated_loop () =
  (* loop_started + iterations, then the trace just stops *)
  let records =
    parse_all
      [
        ev 0.0 "loop_started" "demo";
        ev 0.1 "iteration" "demo" ~attrs:[ ("index", Json.Int 0) ];
        ev 0.5 "iteration" "demo" ~attrs:[ ("index", Json.Int 1) ];
      ]
  in
  let a = Analyze.analyze records in
  let lr = the_loop a in
  Alcotest.(check bool) "truncated" true lr.Analyze.lr_truncated;
  Alcotest.(check bool) "incomplete" false a.Analyze.a_complete;
  Alcotest.(check int) "iterations survive" 2
    (List.length lr.Analyze.lr_iterations)

let test_per_iteration_attribution () =
  (* candidates, cexes and solver calls land on the iteration that is
     open when they happen *)
  let records =
    parse_all
      [
        ev 0.0 "loop_started" "demo";
        ev 0.1 "iteration" "demo" ~attrs:[ ("index", Json.Int 0) ];
        ev 0.2 "candidate" "demo";
        ev 0.3 "solver_call" "demo"
          ~attrs:
            [
              ("result", Json.String "sat");
              ("conflicts", Json.Int 7);
              ("propagations", Json.Int 100);
            ];
        ev 0.4 "oracle_verdict" "demo"
          ~attrs:[ ("verdict", Json.String "wrong") ];
        ev 0.5 "counterexample" "demo";
        ev 0.6 "iteration" "demo" ~attrs:[ ("index", Json.Int 1) ];
        ev 0.7 "solver_call" "demo"
          ~attrs:
            [
              ("result", Json.String "unsat");
              ("conflicts", Json.Int 3);
              ("propagations", Json.Int 50);
            ];
        ev 0.8 "loop_finished" "demo"
          ~attrs:[ ("outcome", Json.String "ok") ];
        snap 0.9;
      ]
  in
  let lr = the_loop (Analyze.analyze records) in
  Alcotest.(check int) "run sat" 1 lr.Analyze.lr_sat;
  Alcotest.(check int) "run unsat" 1 lr.Analyze.lr_unsat;
  Alcotest.(check int) "run conflicts" 10 lr.Analyze.lr_conflicts;
  Alcotest.(check int) "run propagations" 150 lr.Analyze.lr_propagations;
  Alcotest.(check (list (pair string int))) "verdicts" [ ("wrong", 1) ]
    lr.Analyze.lr_verdicts;
  match lr.Analyze.lr_iterations with
  | [ it0; it1 ] ->
    Alcotest.(check int) "it0 candidates" 1 it0.Analyze.it_candidates;
    Alcotest.(check int) "it0 cexes" 1 it0.Analyze.it_cexes;
    Alcotest.(check int) "it0 conflicts" 7 it0.Analyze.it_conflicts;
    Alcotest.(check int) "it1 solver calls" 1 it1.Analyze.it_solver_calls;
    Alcotest.(check int) "it1 unsat" 1 it1.Analyze.it_unsat
  | its ->
    Alcotest.fail (Printf.sprintf "expected 2 iterations, got %d"
                     (List.length its))

(* ------------------------------------------------------------------ *)
(* flame profile                                                       *)
(* ------------------------------------------------------------------ *)

let test_flame_profile () =
  (* completion order: children first, then the root *)
  let records =
    parse_all
      [
        span 0.1 "child" 0.2 1;
        span 0.4 "child" 0.1 1;
        span 0.0 "root" 1.0 0;
        snap 1.1;
      ]
  in
  let a = Analyze.analyze records in
  Alcotest.(check int) "no orphans" 0 a.Analyze.a_orphan_spans;
  let frame path =
    match
      List.find_opt (fun f -> f.Analyze.fr_path = path) a.Analyze.a_frames
    with
    | Some f -> f
    | None -> Alcotest.fail ("missing frame " ^ String.concat ";" path)
  in
  let root = frame [ "root" ] and child = frame [ "root"; "child" ] in
  Alcotest.(check int) "child count" 2 child.Analyze.fr_count;
  Alcotest.(check (float 1e-9)) "child total" 0.3 child.Analyze.fr_total;
  Alcotest.(check (float 1e-9)) "child self" 0.3 child.Analyze.fr_self;
  Alcotest.(check (float 1e-9)) "root total" 1.0 root.Analyze.fr_total;
  (* root self-time excludes its children *)
  Alcotest.(check (float 1e-9)) "root self" 0.7 root.Analyze.fr_self;
  (* hottest self-time first *)
  match a.Analyze.a_frames with
  | first :: _ ->
    Alcotest.(check (list string)) "hottest first" [ "root" ]
      first.Analyze.fr_path
  | [] -> Alcotest.fail "no frames"

let test_orphan_spans () =
  (* a depth-2 span whose depth-1 parent never completed *)
  let records =
    parse_all [ span 0.1 "deep" 0.1 2; span 0.0 "root" 1.0 0; snap 1.1 ]
  in
  let a = Analyze.analyze records in
  Alcotest.(check int) "orphan counted" 1 a.Analyze.a_orphan_spans

(* ------------------------------------------------------------------ *)
(* loading from disk                                                   *)
(* ------------------------------------------------------------------ *)

let test_load_roundtrip () =
  let path = Filename.temp_file "analyze_test" ".jsonl" in
  let oc = open_out path in
  List.iter
    (fun j ->
      output_string oc (Json.to_string j);
      output_char oc '\n')
    (loop_trace [ 0.1; 0.2 ]);
  close_out oc;
  (match Analyze.load path with
  | Error msg -> Alcotest.fail msg
  | Ok records ->
    let lr = the_loop (Analyze.analyze records) in
    Alcotest.(check int) "iterations" 2
      (List.length lr.Analyze.lr_iterations));
  Sys.remove path

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_load_errors () =
  (match Analyze.load "/nonexistent/trace.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a missing file");
  let path = Filename.temp_file "analyze_test" ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"t\":0.0,\"kind\":\"metrics\",\"metrics\":{}}\n";
  output_string oc "not json\n";
  close_out oc;
  (match Analyze.load path with
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names line 2" msg)
      true (contains msg "line 2")
  | Ok _ -> Alcotest.fail "accepted a malformed line");
  let empty = Filename.temp_file "analyze_test" ".jsonl" in
  (match Analyze.load empty with
  | Error msg ->
    Alcotest.(check bool) "empty trace flagged" true (contains msg "empty")
  | Ok _ -> Alcotest.fail "accepted an empty trace");
  Sys.remove path;
  Sys.remove empty

(* ------------------------------------------------------------------ *)
(* cross-trace diff                                                    *)
(* ------------------------------------------------------------------ *)

let test_key_figures () =
  let doc =
    Json.Obj
      [
        ( "benchmarks",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "ogis/x");
                  ( "fresh",
                    Json.Obj
                      [
                        ("seconds", Json.Float 1.5);
                        ("conflicts", Json.Int 100);
                        ("buckets", Json.List [ Json.Int 9 ]);
                      ] );
                ];
            ] );
      ]
  in
  let figs = Analyze.key_figures doc in
  Alcotest.(check (option (float 1e-9))) "named list descended" (Some 1.5)
    (List.assoc_opt "benchmarks.ogis/x.fresh.seconds" figs);
  Alcotest.(check (option (float 1e-9))) "ints too" (Some 100.0)
    (List.assoc_opt "benchmarks.ogis/x.fresh.conflicts" figs);
  Alcotest.(check bool) "buckets skipped" true
    (List.for_all (fun (k, _) -> not (contains k "buckets")) figs)

let test_diff_thresholds () =
  let base =
    [
      ("loop.seconds", 1.0);
      ("loop.conflicts", 100.0);
      ("loop.iterations", 10.0);
      ("fast.seconds", 0.01);
      ("loop.unclassified_quantity", 1.0);
    ]
  in
  let cur =
    [
      ("loop.seconds", 2.0) (* 2.0x > 1.5 -> regression *);
      ("loop.conflicts", 50.0) (* 0.5x < 1/1.4 -> improvement *);
      ("loop.iterations", 11.0) (* 1.1x, within 1.25 -> quiet *);
      ("fast.seconds", 0.04) (* both under min_seconds -> skipped *);
      ("loop.unclassified_quantity", 99.0) (* no class -> ignored *);
    ]
  in
  let findings = Analyze.diff ~base cur in
  Alcotest.(check int) "two findings" 2 (List.length findings);
  Alcotest.(check bool) "regression flagged" true
    (Analyze.regressed findings);
  (match findings with
  | first :: _ ->
    (* regressions sort before improvements *)
    Alcotest.(check string) "regression first" "loop.seconds"
      first.Analyze.f_key;
    Alcotest.(check bool) "is regression" true first.Analyze.f_regressed
  | [] -> Alcotest.fail "no findings");
  let improvement =
    List.find (fun f -> not f.Analyze.f_regressed) findings
  in
  Alcotest.(check string) "improvement key" "loop.conflicts"
    improvement.Analyze.f_key

let test_diff_self_is_quiet () =
  (* a summary diffed against itself never regresses *)
  let a = Analyze.analyze (parse_all (loop_trace [ 0.1; 0.2; 0.3 ])) in
  let figs = Analyze.key_figures (Analyze.summary_json a) in
  Alcotest.(check (list string)) "no findings" []
    (List.map
       (fun f -> f.Analyze.f_key)
       (Analyze.diff ~base:figs figs))

(* The solver-perf row layout before and after the fresh-solver
   baseline was dropped: a new-layout run diffed against an old-layout
   baseline shares no gated key, so [diff] alone reports nothing. *)
let test_missing_keys () =
  let figures seconds conflicts =
    [
      ("seconds", Json.Float seconds);
      ("conflicts", Json.Int conflicts);
      ("metrics", Json.Obj [ ("sat.conflicts", Json.Int conflicts) ]);
    ]
  in
  let bench row = Json.Obj [ ("benchmarks", Json.List [ row ]) ] in
  let old_layout =
    bench
      (Json.Obj
         [
           ("name", Json.String "cegar/x");
           ("fresh", Json.Obj (figures 0.2 900));
           ("incremental", Json.Obj (figures 0.1 500));
           ("speedup", Json.Float 2.0);
         ])
  in
  let new_layout conflicts_metric =
    bench
      (Json.Obj
         (("name", Json.String "cegar/x")
         :: List.filter
              (fun (k, _) -> conflicts_metric || k <> "metrics")
              (figures 0.1 500)))
  in
  let base = Analyze.key_figures old_layout in
  let cur = Analyze.key_figures (new_layout true) in
  Alcotest.(check (list string)) "diff compares nothing" []
    (List.map (fun f -> f.Analyze.f_key) (Analyze.diff ~base cur));
  Alcotest.(check (list string)) "gated old-layout keys reported"
    [
      "benchmarks.cegar/x.fresh.seconds";
      "benchmarks.cegar/x.fresh.conflicts";
      "benchmarks.cegar/x.incremental.seconds";
      "benchmarks.cegar/x.incremental.conflicts";
    ]
    (Analyze.missing_keys ~base cur);
  Alcotest.(check (list string)) "same layout: nothing missing" []
    (Analyze.missing_keys ~base:cur cur);
  Alcotest.(check (list string)) "vanished metrics.* keys tolerated" []
    (Analyze.missing_keys ~base:cur
       (Analyze.key_figures (new_layout false)))

(* ------------------------------------------------------------------ *)
(* end to end: analyze a real traced OGIS run                          *)
(* ------------------------------------------------------------------ *)

let test_traced_ogis_analysis () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  let spec =
    {
      Ogis.Encode.width = 8;
      ninputs = 1;
      noutputs = 1;
      library = [ Ogis.Component.dec; Ogis.Component.and_ ];
    }
  in
  let oracle = function
    | [ x ] -> [ x land (x - 1) land 255 ]
    | _ -> assert false
  in
  let outcome = Ogis.Synth.synthesize spec oracle in
  Obs.shutdown ();
  (match outcome with
  | Budget.Converged (Ogis.Synth.Synthesized _) -> ()
  | _ -> Alcotest.fail "synthesis failed");
  let parsed = parse_all (records ()) in
  let a = Analyze.analyze parsed in
  Alcotest.(check bool) "complete" true a.Analyze.a_complete;
  Alcotest.(check int) "no orphan spans" 0 a.Analyze.a_orphan_spans;
  let lr =
    match
      List.find_opt (fun l -> l.Analyze.lr_loop = "ogis") a.Analyze.a_loops
    with
    | Some lr -> lr
    | None -> Alcotest.fail "no ogis loop in the trace"
  in
  Alcotest.(check bool) "not truncated" false lr.Analyze.lr_truncated;
  Alcotest.(check bool) "has iterations" true
    (List.length lr.Analyze.lr_iterations > 0);
  Alcotest.(check bool) "solver calls attributed" true
    (lr.Analyze.lr_solver_calls > 0);
  Alcotest.(check bool) "sat/unsat split covers all calls" true
    (lr.Analyze.lr_sat + lr.Analyze.lr_unsat <= lr.Analyze.lr_solver_calls);
  (* the report renders without assertion failures *)
  let buf = Buffer.create 256 in
  Analyze.pp_report (Format.formatter_of_buffer buf) a;
  Alcotest.(check bool) "report mentions the loop" true
    (contains (Buffer.contents buf) "ogis");
  (* and the machine summary round-trips through the JSON printer *)
  (match Json.parse (Json.to_string (Analyze.summary_json a)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Obs.reset ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analyze"
    [
      ( "convergence",
        [
          Alcotest.test_case "converging loop" `Quick test_converging_loop;
          Alcotest.test_case "thrashing loop" `Quick test_thrashing_loop;
          Alcotest.test_case "steady loop" `Quick test_steady_loop;
          Alcotest.test_case "truncated loop" `Quick test_truncated_loop;
          Alcotest.test_case "per-iteration attribution" `Quick
            test_per_iteration_attribution;
        ] );
      ( "flame",
        [
          Alcotest.test_case "profile" `Quick test_flame_profile;
          Alcotest.test_case "orphans" `Quick test_orphan_spans;
        ] );
      ( "load",
        [
          Alcotest.test_case "roundtrip" `Quick test_load_roundtrip;
          Alcotest.test_case "errors" `Quick test_load_errors;
        ] );
      ( "diff",
        [
          Alcotest.test_case "key figures" `Quick test_key_figures;
          Alcotest.test_case "thresholds" `Quick test_diff_thresholds;
          Alcotest.test_case "self-diff quiet" `Quick test_diff_self_is_quiet;
          Alcotest.test_case "missing baseline keys" `Quick test_missing_keys;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "traced ogis analysis" `Quick
            test_traced_ogis_analysis;
        ] );
    ]
