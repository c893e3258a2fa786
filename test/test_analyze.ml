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
      match Obs.Trace.of_json j with
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

(* loop_finished's deduce_ms splits the loop's wall time between its
   deductive engine D and its inductive engine I, the rest *)
let test_id_share () =
  let records =
    [
      ev 0.0 "loop_started" "demo";
      ev 0.0 "iteration" "demo" ~attrs:[ ("index", Json.Int 0) ];
      ev 2.0 "loop_finished" "demo"
        ~attrs:[ ("elapsed", Json.Float 2.0); ("deduce_ms", Json.Float 500.0) ];
      snap 2.001;
    ]
  in
  let a = Analyze.analyze (parse_all records) in
  Alcotest.(check (option (float 1e-9))) "deduce seconds" (Some 0.5)
    (the_loop a).Analyze.lr_deduce;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Analyze.pp_report ppf a;
  Format.pp_print_flush ppf ();
  let report = Buffer.contents buf in
  Alcotest.(check bool) "I/D column" true (contains report "I/D%");
  Alcotest.(check bool) "75% I, 25% D" true (contains report " 75/25 ");
  let a = Analyze.analyze (parse_all (loop_trace [ 1.0 ])) in
  Alcotest.(check (option (float 1e-9))) "no deduce_ms, no split" None
    (the_loop a).Analyze.lr_deduce

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

(* the strict decoder: every reader rejects an event the schema does
   not know, naming its line *)
let test_unknown_event_rejected () =
  let path = Filename.temp_file "analyze_test" ".jsonl" in
  let out = Filename.temp_file "analyze_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path; Sys.remove out)
  @@ fun () ->
  let oc = open_out path in
  List.iter
    (fun j -> output_string oc (Json.to_string j ^ "\n"))
    [ ev 0.0 "loop_started" "l"; ev 0.1 "loop_exploded" "l"; snap 0.2 ];
  close_out oc;
  let names_line_2 what = function
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names line 2 and the event" what msg)
        true
        (contains msg "line 2" && contains msg "loop_exploded")
    | Ok _ -> Alcotest.failf "%s accepted an unknown event" what
  in
  names_line_2 "Analyze.load" (Analyze.load path);
  names_line_2 "export_chrome" (Obs.export_chrome ~input:path ~output:out)

(* ------------------------------------------------------------------ *)
(* trace_check's rules: one planted trace per rejection                *)
(* ------------------------------------------------------------------ *)

let ln_ev ?(attrs = "") t name loop =
  Printf.sprintf
    {|{"t":%g,"kind":"event","name":"%s","loop":"%s","dom":0,"attrs":{%s}}|} t
    name loop attrs

let ln_span ?(dom = {|"dom":0,|}) t name dur depth =
  Printf.sprintf
    {|{"t":%g,"kind":"span","name":"%s","dur":%g,"depth":%d,%s"attrs":{}}|} t
    name dur depth dom

let ln_metrics t = Printf.sprintf {|{"t":%g,"kind":"metrics","metrics":{}}|} t

(* a loop [l] whose run holds [body] (events from t = 0.1 on) *)
let run_of body =
  (ln_ev 0.0 "loop_started" "l" :: body)
  @ [ ln_ev 0.9 "loop_finished" "l" ~attrs:{|"elapsed":0.9|}; ln_metrics 1.0 ]

let iteration t = ln_ev t "iteration" "l" ~attrs:{|"index":0|}
let good = run_of [ iteration 0.1 ]
let unsat t loop = ln_ev t "solver_call" loop ~attrs:{|"result":"unsat"|}

let cert ?(attrs = {|"proof_bytes":10,"core_size":1|}) t loop =
  ln_ev t "certificate" loop ~attrs

(* (case, trace lines, required loops, Some fragment of the expected
   error, or None when the trace is valid) *)
let planted =
  [
    ("valid loop run", good, [ "l" ], None);
    ("unknown record kind",
     [ {|{"t":0,"kind":"bogus"}|}; ln_metrics 0.1 ], [],
     Some "unknown record kind");
    ("unknown event name",
     [ ln_ev 0.0 "loop_exploded" "l"; ln_metrics 0.1 ], [],
     Some "unknown event");
    ("event before loop_started",
     [ iteration 0.0; ln_metrics 0.1 ], [], Some "before loop_started");
    ("event after loop_finished", good @ [ iteration 1.1; ln_metrics 1.2 ], [],
     Some "after loop_finished");
    ("event after budget_exhausted",
     run_of
       [ ln_ev 0.1 "budget_exhausted" "l" ~attrs:{|"reason":"iterations"|};
         iteration 0.2 ],
     [], Some "after budget_exhausted");
    ("unknown budget reason",
     run_of [ ln_ev 0.1 "budget_exhausted" "l" ~attrs:{|"reason":"tea"|} ], [],
     Some "unknown reason");
    ("progress going backwards",
     run_of
       [ ln_ev 0.1 "progress" "l" ~attrs:{|"iteration":3|};
         ln_ev 0.2 "progress" "l" ~attrs:{|"iteration":2|} ],
     [], Some "went backwards");
    ("stall without seconds_stalled",
     run_of [ ln_ev 0.1 "stall_detected" "l" ~attrs:{|"iteration":0|} ], [],
     Some "without seconds_stalled");
    ("stall with seconds_stalled 0",
     run_of
       [ ln_ev 0.1 "stall_detected" "l"
           ~attrs:{|"iteration":0,"seconds_stalled":0|} ],
     [], Some "non-positive seconds_stalled");
    ("negative deduce_ms",
     [ ln_ev 0.0 "loop_started" "l";
       ln_ev 0.1 "loop_finished" "l" ~attrs:{|"deduce_ms":-1,"elapsed":0.1|};
       ln_metrics 0.2 ],
     [], Some "negative deduce_ms");
    ("deduce_ms past elapsed",
     [ ln_ev 0.0 "loop_started" "l";
       ln_ev 0.1 "loop_finished" "l" ~attrs:{|"deduce_ms":500,"elapsed":0.1|};
       ln_metrics 0.2 ],
     [], Some "past its elapsed");
    ("certificate without an unsat solver_call",
     run_of
       [ ln_ev 0.1 "solver_call" "l" ~attrs:{|"result":"sat"|}; cert 0.2 "l" ],
     [], Some "without a preceding unsat solver_call");
    ("certificate without proof_bytes",
     run_of [ unsat 0.1 "l"; cert 0.2 "l" ~attrs:{|"core_size":1|} ], [],
     Some "proof_bytes");
    ("certificate without core_size",
     run_of [ unsat 0.1 "l"; cert 0.2 "l" ~attrs:{|"proof_bytes":10|} ], [],
     Some "core_size");
    ("requeue below 1",
     [ ln_ev 0.0 "job_requeued" "server"
         ~attrs:{|"id":"j","requeue":0,"restart_budget":2|};
       ln_metrics 0.1 ],
     [], Some "job_requeued with requeue 0");
    ("requeue past the restart budget",
     [ ln_ev 0.0 "job_requeued" "server"
         ~attrs:{|"id":"j","requeue":3,"restart_budget":2|};
       ln_metrics 0.1 ],
     [], Some "job_requeued with requeue 3");
    ("degraded_entered twice",
     [ ln_ev 0.0 "degraded_entered" "server" ~attrs:{|"reason":"overload"|};
       ln_ev 0.1 "degraded_entered" "server" ~attrs:{|"reason":"overload"|};
       ln_metrics 0.2 ],
     [], Some "while degraded");
    ("degraded_exited without degraded_entered",
     [ ln_ev 0.0 "degraded_exited" "server"; ln_metrics 0.1 ], [],
     Some "without a degraded_entered");
    ("emission time going backwards",
     [ ln_ev 0.5 "loop_started" "l"; ln_ev 0.1 "loop_finished" "l";
       ln_metrics 0.6 ],
     [], Some "earlier than line 1");
    ("span at the wrong depth",
     [ ln_span 0.1 "deep" 0.1 2; ln_span 0.0 "root" 1.0 0; ln_metrics 1.1 ], [],
     Some "not its direct child");
    ("no final metrics snapshot", [ ln_ev 0.0 "loop_started" "l" ], [],
     Some "metrics snapshot");
    ("required loop absent", good, [ "other" ], Some "absent");
    ("required loop never finishes",
     [ ln_ev 0.0 "loop_started" "l"; iteration 0.1; ln_metrics 0.2 ], [ "l" ],
     Some "never finished");
    ("required loop without iterations", run_of [], [ "l" ],
     Some "no iterations");
    ("trailing open degraded_entered",
     [ ln_ev 0.0 "degraded_entered" "server" ~attrs:{|"reason":"overload"|};
       ln_metrics 0.1 ],
     [], None);
    ("span without dom",
     [ ln_span ~dom:"" 0.0 "root" 0.1 0; ln_metrics 0.2 ], [], None);
    ("solver_call after its loop ended",
     good @ [ unsat 1.1 ""; cert 1.2 ""; ln_metrics 1.3 ], [], None);
  ]

(* what trace_check does: decode every line, then run the rules *)
let check_lines ~require lines =
  let path = Filename.temp_file "planted" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  match Obs.Trace.read path with
  | Error msg -> [ msg ]
  | Ok records -> Analyze.check ~require records

let planted_case (case, lines, require, expected) =
  Alcotest.test_case case `Quick (fun () ->
      match (check_lines ~require lines, expected) with
      | [], None -> ()
      | errors, None ->
        Alcotest.failf "valid trace rejected: %s" (String.concat "; " errors)
      | [], Some _ -> Alcotest.fail "planted trace accepted"
      | errors, Some fragment ->
        Alcotest.(check bool)
          (Printf.sprintf "%s in %s" fragment (String.concat "; " errors))
          true
          (List.exists (fun e -> contains e fragment) errors))

(* encode -> decode -> encode is a fixpoint for every record. The
   encoded lines are compared, not the values: %.12g writes 2.0 as 2,
   which reads back as an Int, and a non-finite float as null. *)
let codec_fixpoint =
  let open QCheck.Gen in
  let short = string_size ~gen:printable (0 -- 6) in
  let any_float =
    oneof
      [
        float;
        oneofl [ nan; infinity; neg_infinity; -0.0; 2.0; 1e-7; 1e20; 0.1 ];
      ]
  in
  let time = map Float.abs (float_bound_inclusive 1e4) in
  let value =
    oneof
      [
        map (fun i -> Obs.Int i) int;
        map (fun f -> Obs.Float f) any_float;
        map (fun b -> Obs.Bool b) bool;
        map (fun s -> Obs.String s) short;
      ]
  in
  let key = oneof [ short; oneofl [ "index"; "result"; "reason"; "id" ] ] in
  let attrs = list_size (0 -- 4) (pair key value) in
  let event =
    let* loop = oneof [ short; return "" ] in
    let* attrs = attrs in
    let* i = int and* j = int and* f = any_float and* s = short in
    oneofl
      Obs.
        [
          Loop_started { loop; attrs };
          Iteration { loop; index = i; attrs };
          Candidate { loop; attrs };
          Oracle_verdict { loop; verdict = s; attrs };
          Counterexample { loop; attrs };
          Solver_call { loop; result = s; attrs };
          Certificate { loop; attrs };
          Progress { loop; iteration = i; attrs };
          Stall_detected { loop; iteration = i; seconds_stalled = f; attrs };
          Budget_exhausted { loop; reason = s; attrs };
          Loop_finished { loop; attrs };
          Job_requeued { loop; id = s; requeue = i; restart_budget = j; attrs };
          Degraded_entered { loop; reason = s; attrs };
          Degraded_exited { loop; attrs };
        ]
  in
  let metric =
    pair short
      (oneof
         [
           map (fun i -> Json.Int i) int;
           map (fun f -> Json.Float f) any_float;
           map
             (fun (c, m) ->
               let bucket = Json.List [ Json.Int 1; Json.Int c ] in
               Json.Obj
                 [ ("count", Json.Int c); ("max", Json.Int m);
                   ("buckets", Json.List [ bucket ]) ])
             (pair nat nat);
         ])
  in
  let record =
    let* t = time and* dom = nat in
    oneof
      [
        (let* name = short and* dur = time and* depth = nat
         and* attrs = attrs in
         return (Obs.Trace.Span { t; name; dur; depth; dom; attrs }));
        map (fun event -> Obs.Trace.Event { t; dom; event }) event;
        map
          (fun metrics -> Obs.Trace.Metrics { t; metrics })
          (list_size (0 -- 4) metric);
      ]
  in
  let line r = Json.to_string (Obs.Trace.to_json r) in
  QCheck.Test.make ~count:2000 ~name:"encode-decode-encode is a fixpoint"
    (QCheck.make ~print:line record)
    (fun r ->
      let l = line r in
      match Result.bind (Json.parse l) Obs.Trace.of_json with
      | Ok r' -> line r' = l
      | Error msg -> QCheck.Test.fail_reportf "%s does not decode: %s" l msg)

(* a loop run as one pool task, as the daemon runs a served job, names
   its D calls on whichever domain runs it: every solver call and
   certificate of the BMC sweep is the sweep's, and the analysis counts
   all of them *)
let test_pool_calls_name_their_loop () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  let prefix =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "test_analyze_pool_%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () ->
      Smt.Proof.disable ();
      Certs.cleanup_spools prefix;
      Obs.reset ())
  @@ fun () ->
  Smt.Proof.enable ~prefix;
  let ts = Mc.Systems.mod_counter ~bits:3 ~modulus:6 ~bad_value:7 () in
  (match
     Par.Pool.with_pool ~jobs:2 (fun pool ->
         Par.await pool
           (Par.submit pool (fun () -> Mc.Bmc.sweep ts ~max_depth:24)))
   with
  | Budget.Converged None -> ()
  | _ -> Alcotest.fail "the counter never reaches 7");
  Smt.Proof.disable ();
  Obs.shutdown ();
  let events name =
    List.filter_map
      (fun j ->
        match Obs.Trace.of_json j with
        | Ok (Obs.Trace.Event { event; _ }) when Obs.Trace.name event = name ->
          Some (Obs.Trace.loop event)
        | _ -> None)
      (records ())
  in
  let calls = events "solver_call" and certs = events "certificate" in
  Alcotest.(check bool) "solver calls made" true (calls <> []);
  Alcotest.(check int) "one certificate per unsat call" (List.length calls)
    (List.length certs);
  Alcotest.(check (list string)) "every solver call names bmc"
    (List.map (fun _ -> "bmc") calls) calls;
  Alcotest.(check (list string)) "every certificate names bmc"
    (List.map (fun _ -> "bmc") certs) certs;
  let lr = the_loop (Analyze.analyze (parse_all (records ()))) in
  Alcotest.(check int) "analysis counts every call" (List.length calls)
    lr.Analyze.lr_solver_calls;
  Alcotest.(check int) "analysis counts every certificate" (List.length certs)
    lr.Analyze.lr_certs

(* ------------------------------------------------------------------ *)
(* cross-trace diff                                                    *)
(* ------------------------------------------------------------------ *)

(* loops run one after another, each laid out as [loop_trace] lays it
   out, then one final snapshot holding [metrics] *)
let loops_trace ?(metrics = []) loops =
  let shift dt = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "t", Json.Float t -> ("t", Json.Float (t +. dt))
             | field -> field)
           fields)
    | j -> j
  in
  let rec go t0 = function
    | [] ->
      [
        Json.Obj
          [
            ("t", Json.Float (t0 +. 0.001));
            ("kind", Json.String "metrics");
            ("metrics", Json.Obj metrics);
          ];
      ]
    | (loop, durs) :: rest ->
      let records = loop_trace ~loop durs in
      let without_snap =
        List.filteri (fun i _ -> i < List.length records - 1) records
      in
      List.map (shift t0) without_snap
      @ go (t0 +. List.fold_left ( +. ) 0.0 durs) rest
  in
  go 0.0 loops

(* [Analyze.run_report ~against:base cur] over the two traces written to
   temp files: its exit code and what it printed *)
let report_against ?(json = false) ~base cur =
  let write records =
    let path = Filename.temp_file "analyze_report" ".jsonl" in
    let oc = open_out path in
    List.iter (fun j -> output_string oc (Json.to_string j ^ "\n")) records;
    close_out oc;
    path
  in
  let base_path = write base and cur_path = write cur in
  let out = Filename.temp_file "analyze_report" ".out" in
  Fun.protect ~finally:(fun () ->
      List.iter Sys.remove [ base_path; cur_path; out ])
  @@ fun () ->
  Format.print_flush ();
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let code =
    Fun.protect
      ~finally:(fun () ->
        Format.print_flush ();
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      (fun () -> Analyze.run_report ~json ~against:base_path cur_path)
  in
  match code with
  | Error msg -> Alcotest.fail msg
  | Ok code -> (code, In_channel.with_open_bin out In_channel.input_all)

(* the --json verdict's findings as (key, regression) pairs *)
let findings text =
  let member k j =
    match Json.member k j with Some v -> v | None -> Alcotest.fail k
  in
  match Json.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok doc -> (
    match member "findings" (member "baseline" doc) with
    | Json.List fs ->
      List.map
        (fun f ->
          match (member "key" f, member "regression" f) with
          | Json.String k, Json.Bool r -> (k, r)
          | _ -> Alcotest.fail "malformed finding")
        fs
    | _ -> Alcotest.fail "findings is not a list")

(* figures are keyed by their path through named loop runs; a second
   run of one loop gets its run number *)
let test_key_figures () =
  let base = loops_trace [ ("ogis", [ 1.0 ]); ("ogis", [ 1.0 ]) ] in
  let cur = loops_trace [ ("ogis", [ 1.0 ]); ("ogis", [ 2.0 ]) ] in
  let code, text = report_against ~json:true ~base cur in
  Alcotest.(check int) "regression" 1 code;
  Alcotest.(check (list (pair string bool))) "second run keyed #2"
    [ ("loops.ogis#2.seconds", true) ]
    (findings text)

(* the fixed limits: seconds past 1.5x regress unless both sides are
   under 0.05 s, conflicts under 1/1.4 improve, iterations within 1.25x
   and unclassified figures stay quiet; regressions sort first *)
let test_diff_thresholds () =
  let base =
    loops_trace
      ~metrics:[ ("sat.conflicts", Json.Int 100); ("sat.restarts", Json.Int 1) ]
      [ ("demo", List.init 10 (fun _ -> 0.1)); ("fast", [ 0.01 ]) ]
  in
  let cur =
    loops_trace
      ~metrics:[ ("sat.conflicts", Json.Int 50); ("sat.restarts", Json.Int 99) ]
      [ ("demo", List.init 11 (fun _ -> 2.0 /. 11.0)); ("fast", [ 0.04 ]) ]
  in
  let code, text = report_against ~json:true ~base cur in
  Alcotest.(check int) "regression" 1 code;
  Alcotest.(check (list (pair string bool))) "findings"
    [
      ("wall_seconds", true);
      ("loops.demo.seconds", true);
      ("metrics.sat.conflicts", false);
    ]
    (findings text)

let test_diff_self_is_quiet () =
  let trace = loop_trace [ 0.1; 0.2; 0.3 ] in
  let code, text = report_against ~json:true ~base:trace trace in
  Alcotest.(check int) "pass" 0 code;
  Alcotest.(check (list (pair string bool))) "no findings" [] (findings text)

(* the text report, as trace_report prints it: a trace against itself
   passes, and against one whose loop took half the time it fails *)
let test_report_against_itself () =
  let trace = loops_trace [ ("demo", [ 0.5; 0.5 ]) ] in
  let code, text = report_against ~base:trace trace in
  Alcotest.(check int) "Ok 0" 0 code;
  Alcotest.(check bool) "quiet" true
    (contains text "no deltas beyond thresholds");
  Alcotest.(check bool) "PASS" true (contains text "verdict: PASS")

let test_report_against_slower () =
  let base = loops_trace [ ("demo", [ 0.5; 0.5 ]) ] in
  let cur = loops_trace [ ("demo", [ 1.0; 1.0 ]) ] in
  let code, text = report_against ~base cur in
  Alcotest.(check int) "Ok 1" 1 code;
  Alcotest.(check bool) "names the loop" true
    (contains text "REGRESSION loops.demo.seconds");
  Alcotest.(check bool) "FAIL" true (contains text "verdict: FAIL")

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

(* a traced timing job at 9 bits: the GameTime loop announces its live
   edges and the live rank bound, asks D once per basis path, and its
   ending names why it stopped; every record survives the codec *)
let test_traced_gametime_analysis () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  let p = Prog.Benchmarks.modexp ~bits:9 () in
  let platform = Microarch.Platform.time (Microarch.Platform.create p) in
  let wcet =
    match
      Gametime.Analysis.analyze ~bound:9 ~seed:2012 ~pin:[ ("base", 123) ]
        ~platform p
    with
    | Budget.Converged t -> Gametime.Analysis.wcet_opt t ~platform
    | Budget.Exhausted _ -> Alcotest.fail "unbudgeted analysis exhausted"
  in
  Obs.shutdown ();
  (match wcet with
  | Some w ->
    Alcotest.(check int) "WCET" 763 w.Gametime.Analysis.measured_cycles
  | None -> Alcotest.fail "no WCET");
  let js = records () in
  List.iter
    (fun j ->
      match Obs.Trace.of_json j with
      | Ok r ->
        Alcotest.(check string) "encode-decode-encode" (Json.to_string j)
          (Json.to_string (Obs.Trace.to_json r))
      | Error msg -> Alcotest.fail msg)
    js;
  let parsed = parse_all js in
  let attrs_of name =
    List.find_map
      (function
        | Obs.Trace.Event { event = Obs.Loop_started { loop; attrs }; _ }
          when name = "loop_started" && loop = "gametime" ->
          Some attrs
        | Obs.Trace.Event { event = Obs.Loop_finished { loop; attrs }; _ }
          when name = "loop_finished" && loop = "gametime" ->
          Some attrs
        | _ -> None)
      parsed
    |> Option.value ~default:[]
  in
  let started = attrs_of "loop_started" in
  Alcotest.(check bool) "live edges announced" true
    (match List.assoc_opt "live_edges" started with
    | Some (Obs.Int n) -> n > 0
    | _ -> false);
  Alcotest.(check bool) "live rank bound 10" true
    (List.assoc_opt "rank_bound" started = Some (Obs.Int 10));
  Alcotest.(check bool) "stopped at the bound" true
    (List.assoc_opt "outcome" (attrs_of "loop_finished")
    = Some (Obs.String "rank_bound"));
  let a = Analyze.analyze parsed in
  let lr =
    match
      List.find_opt (fun l -> l.Analyze.lr_loop = "gametime") a.Analyze.a_loops
    with
    | Some lr -> lr
    | None -> Alcotest.fail "no gametime loop in the trace"
  in
  Alcotest.(check int) "one query per basis path" 10 lr.Analyze.lr_solver_calls;
  let audit = Format.asprintf "%a" Analyze.pp_audit a in
  Alcotest.(check bool) "explain names the stop" true
    (contains audit "gametime run 1: rank_bound");
  Obs.reset ()

(* [--stats] prints the run's own trace report: on one traced,
   proof-logged deobfuscation its summary is [trace_report]'s body for
   the same records, loop table (with the I/D split and the outcome)
   and derived metric lines included *)
let test_stats_and_report_agree () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  let prefix =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "test_analyze_stats_%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () ->
      Smt.Proof.disable ();
      Certs.cleanup_spools prefix;
      Obs.reset ())
  @@ fun () ->
  Smt.Proof.enable ~prefix;
  let o =
    Server.Jobs.run (Server.Jobs.Deobfuscate { program = `P1; width = 8 })
  in
  Alcotest.(check int) "p1 deobfuscates" 0 o.Server.Jobs.code;
  Smt.Proof.disable ();
  Obs.shutdown ();
  let stats = Format.asprintf "%a" Obs.pp_summary (records ()) in
  let report =
    Format.asprintf "%a" (Analyze.pp_report ?top:None)
      (Analyze.analyze (parse_all (records ())))
  in
  List.iter
    (fun shown ->
      Alcotest.(check bool) (shown ^ " printed") true (contains stats shown))
    [
      "I/D%"; "outcome"; "synthesized"; "bitblast cache hit rate"; "proof plane";
    ];
  Alcotest.(check string) "the report under the summary line"
    ("\n== telemetry summary ==\n" ^ report)
    stats

(* both views list only the metrics that moved: a counter registered
   but never bumped is on neither *)
let test_unmoved_metrics_hidden () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  Fun.protect ~finally:Obs.reset @@ fun () ->
  let _idle = Obs.Metrics.counter "test.never_bumped" in
  Obs.Metrics.incr (Obs.Metrics.counter "test.bumped");
  Obs.shutdown ();
  let stats = Format.asprintf "%a" Obs.pp_summary (records ()) in
  let report =
    Format.asprintf "%a" (Analyze.pp_report ?top:None)
      (Analyze.analyze (parse_all (records ())))
  in
  List.iter
    (fun (what, text) ->
      Alcotest.(check bool) (what ^ " prints the bumped counter") true
        (contains text "test.bumped");
      Alcotest.(check bool) (what ^ " hides the idle one") false
        (contains text "test.never_bumped"))
    [ ("--stats", stats); ("trace_report", report) ]

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
          Alcotest.test_case "I/D share" `Quick test_id_share;
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
          Alcotest.test_case "unknown event rejected" `Quick
            test_unknown_event_rejected;
        ] );
      ("codec", [ QCheck_alcotest.to_alcotest codec_fixpoint ]);
      ("check", List.map planted_case planted);
      ( "diff",
        [
          Alcotest.test_case "key figures" `Quick test_key_figures;
          Alcotest.test_case "thresholds" `Quick test_diff_thresholds;
          Alcotest.test_case "self-diff quiet" `Quick test_diff_self_is_quiet;
          Alcotest.test_case "against itself passes" `Quick
            test_report_against_itself;
          Alcotest.test_case "against a 2x slower loop fails" `Quick
            test_report_against_slower;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "traced ogis analysis" `Quick
            test_traced_ogis_analysis;
          Alcotest.test_case "pool D calls name their loop" `Quick
            test_pool_calls_name_their_loop;
          Alcotest.test_case "traced gametime stops at the live bound" `Quick
            test_traced_gametime_analysis;
          Alcotest.test_case "stats and report print one snapshot"
            `Quick test_stats_and_report_agree;
          Alcotest.test_case "only metrics that moved are printed" `Quick
            test_unmoved_metrics_hidden;
        ] );
    ]
