(* Tests for the live telemetry plane: rate computation over snapshot
   pairs (including counter resets mid-window), the ticker's bounded
   ring, the stats endpoint round trip from another domain, the stall
   watchdog, the progress-event contract, and the scheduler metrics the
   pool reports. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Live = Obs.Live

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let events_named name records =
  List.filter
    (fun r ->
      Option.bind (Json.member "kind" r) Json.to_str = Some "event"
      && Option.bind (Json.member "name" r) Json.to_str = Some name)
    records

let attr_of k r =
  Option.bind (Json.member "attrs" r) (fun a -> Json.member k a)

(* ------------------------------------------------------------------ *)
(* rates                                                               *)
(* ------------------------------------------------------------------ *)

let test_rates_between () =
  let sample ts metrics = { Live.ts; metrics } in
  let prev =
    sample 10.0 [ ("a", Metrics.Counter 100); ("g", Metrics.Gauge 5.0) ]
  in
  let cur =
    sample 12.0
      [
        ("a", Metrics.Counter 300); ("b", Metrics.Counter 50);
        ("g", Metrics.Gauge 9.0); ("z", Metrics.Counter 0);
      ]
  in
  let rates = Live.rates_between ~prev ~cur in
  Alcotest.(check (float 1e-9)) "delta over dt" 100.0 (List.assoc "a" rates);
  (* a counter born inside the window contributes its whole value *)
  Alcotest.(check (float 1e-9)) "new counter" 25.0 (List.assoc "b" rates);
  Alcotest.(check bool) "gauges have no rate" false (List.mem_assoc "g" rates);
  Alcotest.(check bool) "untouched counters omitted" false
    (List.mem_assoc "z" rates);
  (* a reset inside the window: growth since the reset, never negative *)
  let after_reset = sample 14.0 [ ("a", Metrics.Counter 40) ] in
  Alcotest.(check (float 1e-9))
    "reset mid-window" 10.0
    (List.assoc "a" (Live.rates_between ~prev ~cur:after_reset));
  Alcotest.(check bool) "non-positive dt yields nothing" true
    (Live.rates_between ~prev:cur ~cur:prev = [])

(* ------------------------------------------------------------------ *)
(* ticker ring                                                         *)
(* ------------------------------------------------------------------ *)

let test_ticker_ring () =
  Obs.reset ();
  let c = Metrics.counter "live.test_ring" in
  (* interval far in the future: only the initial sample and our manual
     ticks land in the ring *)
  let t = Live.start ~interval_ms:600_000 ~capacity:3 () in
  for i = 1 to 4 do
    Metrics.add c 10;
    ignore i;
    Live.tick_now t
  done;
  let samples = Live.samples t in
  Alcotest.(check int) "ring keeps the newest capacity" 3
    (List.length samples);
  let ts = List.map (fun s -> s.Live.ts) samples in
  Alcotest.(check bool) "timestamps strictly increase" true
    (List.sort_uniq compare ts = ts);
  (match Live.latest t with
  | Some s -> (
    match List.assoc_opt "live.test_ring" s.Live.metrics with
    | Some (Metrics.Counter v) ->
      Alcotest.(check int) "latest sees the final value" 40 v
    | _ -> Alcotest.fail "counter missing from latest sample")
  | None -> Alcotest.fail "no latest sample");
  Alcotest.(check bool) "window spans the ring" true
    (Live.window_seconds t >= 0.0);
  (* a registry reset between ticks must not produce negative rates *)
  Metrics.reset ();
  Metrics.add c 3;
  Live.tick_now t;
  let samples = Live.samples t in
  let n = List.length samples in
  let prev = List.nth samples (n - 2) and cur = List.nth samples (n - 1) in
  (match List.assoc_opt "live.test_ring" (Live.rates_between ~prev ~cur) with
  | None -> Alcotest.fail "no rate after reset"
  | Some rate ->
    Alcotest.(check bool) "rate is non-negative" true (rate >= 0.0);
    let dt = cur.Live.ts -. prev.Live.ts in
    Alcotest.(check int) "delta is the post-reset growth" 3
      (int_of_float (Float.round (rate *. dt))));
  Live.stop t;
  Live.stop t;
  (* stop is idempotent *)
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* stats endpoint                                                      *)
(* ------------------------------------------------------------------ *)

(* A second run handed the socket of a live one is refused with a typed
   error and leaves the live endpoint serving; a socket file nobody
   accepts on (a crashed run's leftover) is replaced. *)
let fresh_socket_path () =
  let path = Filename.temp_file "sciduction_stats" ".sock" in
  Sys.remove path;
  path

let with_endpoint path f =
  let ticker = Live.start ~interval_ms:600_000 () in
  match Obs.Statsd.start ~path ~ticker () with
  | Error e ->
    Live.stop ticker;
    Alcotest.fail (Obs.Statsd.socket_error_message e)
  | Ok server ->
    Fun.protect
      ~finally:(fun () ->
        Obs.Statsd.stop server;
        Live.stop ticker)
      f

let test_statsd_live_path_refused () =
  Obs.reset ();
  let path = fresh_socket_path () in
  with_endpoint path (fun () ->
      let ticker = Live.start ~interval_ms:600_000 () in
      (match Obs.Statsd.start ~path ~ticker () with
      | Ok second ->
        Obs.Statsd.stop second;
        Alcotest.fail "a second endpoint took over a live socket"
      | Error (Obs.Statsd.Live_server p) ->
        Alcotest.(check string) "error names the path" path p
      | Error e ->
        Alcotest.failf "wrong refusal: %s" (Obs.Statsd.socket_error_message e));
      Live.stop ticker;
      match Obs.Statsd.fetch ~path ~target:"/healthz" () with
      | Ok body ->
        Alcotest.(check string) "live endpoint still serves" "ok\n" body
      | Error msg -> Alcotest.failf "live endpoint harmed: %s" msg);
  Alcotest.(check bool) "socket removed on stop" false (Sys.file_exists path)

let test_statsd_stale_socket_replaced () =
  Obs.reset ();
  let path = fresh_socket_path () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  Alcotest.(check bool) "stale file present" true (Sys.file_exists path);
  with_endpoint path (fun () ->
      match Obs.Statsd.fetch ~path ~target:"/healthz" () with
      | Ok body -> Alcotest.(check string) "replacement serves" "ok\n" body
      | Error msg -> Alcotest.failf "stale socket not replaced: %s" msg)

let test_statsd_roundtrip () =
  Obs.reset ();
  Obs.enable ();
  let c = Metrics.counter "live.socket_hits" in
  Metrics.add c 42;
  let lp = Obs.Loop.start "livetest" in
  Obs.Loop.iteration lp 3;
  let ticker = Live.start ~interval_ms:600_000 () in
  Live.tick_now ticker;
  let path = Filename.temp_file "sciduction_stats" ".sock" in
  (* a unique name, not a file: the endpoint refuses to replace one *)
  Sys.remove path;
  (match Obs.Statsd.start ~path ~ticker () with
  | Error e -> Alcotest.fail (Obs.Statsd.socket_error_message e)
  | Ok server ->
    (* scrape from a second domain, the way a real client process
       would hit the socket from outside the run *)
    let fetch target =
      Domain.join
        (Domain.spawn (fun () -> Obs.Statsd.fetch ~path ~target ()))
    in
    (match fetch "/json" with
    | Error msg -> Alcotest.fail msg
    | Ok body -> (
      match Json.parse (String.trim body) with
      | Error msg -> Alcotest.fail ("endpoint JSON does not parse: " ^ msg)
      | Ok doc ->
        Alcotest.(check bool) "schema tag" true
          (Option.bind (Json.member "schema" doc) Json.to_str
          = Some "sciduction.stats/1");
        (match
           Option.bind (Json.member "metrics" doc) (Json.member "live.socket_hits")
         with
        | Some (Json.Int 42) -> ()
        | _ -> Alcotest.fail "counter missing from /json");
        (match Json.member "loops" doc with
        | Some (Json.List [ loop ]) ->
          Alcotest.(check bool) "loop name served" true
            (Option.bind (Json.member "loop" loop) Json.to_str
            = Some "livetest");
          Alcotest.(check bool) "loop iteration served" true
            (Option.bind (Json.member "iteration" loop) Json.to_int = Some 3)
        | _ -> Alcotest.fail "expected exactly one active loop")));
    (match fetch "/metrics" with
    | Error msg -> Alcotest.fail msg
    | Ok body ->
      Alcotest.(check bool) "prometheus counter" true
        (contains body "sciduction_live_socket_hits 42");
      Alcotest.(check bool) "prometheus loop gauge" true
        (contains body "sciduction_loop_iteration{loop=\"livetest\"} 3"));
    (match fetch "/no-such-page" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "unknown target should be a 404");
    Obs.Statsd.stop server;
    Alcotest.(check bool) "socket file removed on stop" false
      (Sys.file_exists path);
    Obs.Statsd.stop server (* idempotent *));
  Live.stop ticker;
  Obs.Loop.finish lp;
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* stall watchdog                                                      *)
(* ------------------------------------------------------------------ *)

let test_watchdog_stall_then_recover () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  let lp = Obs.Loop.start "wdog" in
  Obs.Loop.iteration lp 0;
  (* fresh loop inside a generous window: nothing to flag *)
  Obs.check_stalls ~window:60.0;
  Unix.sleepf 0.02;
  Obs.check_stalls ~window:0.01;
  (* already flagged: not reported again while still stalled *)
  Obs.check_stalls ~window:0.01;
  (* an advancing iteration clears the flag... *)
  Obs.Loop.iteration lp 1;
  Unix.sleepf 0.02;
  (* ...so a second quiet spell is a second, distinct stall *)
  Obs.check_stalls ~window:0.01;
  Obs.Loop.finish lp;
  (* finished loops can never stall *)
  Obs.check_stalls ~window:0.000001;
  Obs.shutdown ();
  let stalls = events_named "stall_detected" (records ()) in
  Alcotest.(check int) "stall, recovery, stall" 2 (List.length stalls);
  List.iter
    (fun r ->
      Alcotest.(check bool) "stall names its loop" true
        (Option.bind (Json.member "loop" r) Json.to_str = Some "wdog");
      match Option.bind (attr_of "seconds_stalled" r) Json.to_float with
      | Some s -> Alcotest.(check bool) "positive stall age" true (s > 0.0)
      | None -> Alcotest.fail "stall without seconds_stalled")
    stalls;
  Alcotest.(check int) "stalls counted in the registry" 2
    (Metrics.counter_value (Metrics.counter "obs.stalls_detected"));
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* progress events                                                     *)
(* ------------------------------------------------------------------ *)

let test_progress_reports_max_iteration () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  Obs.set_progress_interval 1e-9;
  let lp = Obs.Loop.start "prog" in
  (* a parallel sweep can emit its fetch-and-add indices out of order;
     the sleeps make each iteration's timestamp pass the tiny interval
     so every iteration yields a progress record *)
  List.iter
    (fun i ->
      Unix.sleepf 0.002;
      Obs.Loop.iteration lp i ~attrs:[ ("depth", Obs.Int (10 * i)) ])
    [ 0; 2; 1; 5; 4 ];
  Obs.Loop.finish lp;
  Obs.shutdown ();
  let prog = events_named "progress" (records ()) in
  let reported =
    List.map
      (fun r ->
        match Option.bind (attr_of "iteration" r) Json.to_int with
        | Some i -> i
        | None -> Alcotest.fail "progress without iteration")
      prog
  in
  (* max-so-far of [0; 2; 1; 5; 4], monotone despite the disorder *)
  Alcotest.(check (list int)) "progress reports the running max"
    [ 0; 2; 2; 5; 5 ] reported;
  (* the iteration's own attributes ride along *)
  (match prog with
  | first :: _ -> (
    match Option.bind (attr_of "depth" first) Json.to_int with
    | Some 0 -> ()
    | _ -> Alcotest.fail "progress lost the iteration attrs")
  | [] -> Alcotest.fail "no progress records");
  Obs.reset ()

let test_progress_rate_limited () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  (* a huge interval: only the first iteration of the run reports *)
  Obs.set_progress_interval 1000.0;
  let lp = Obs.Loop.start "prog" in
  for i = 0 to 19 do
    Obs.Loop.iteration lp i
  done;
  Obs.Loop.finish lp;
  Obs.shutdown ();
  Alcotest.(check int) "at most one progress per interval" 1
    (List.length (events_named "progress" (records ())));
  Obs.reset ()

let test_progress_off_by_default () =
  Obs.reset ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  Obs.enable ();
  let lp = Obs.Loop.start "silent" in
  for i = 0 to 9 do
    Obs.Loop.iteration lp i
  done;
  Obs.Loop.finish lp;
  Obs.shutdown ();
  Alcotest.(check int) "no progress channel unless asked for" 0
    (List.length (events_named "progress" (records ())));
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* scheduler metrics                                                   *)
(* ------------------------------------------------------------------ *)

let test_par_metrics () =
  Obs.reset ();
  let results =
    Par.Pool.with_pool ~jobs:2 (fun p ->
        let futs = List.init 8 (fun i -> Par.submit p (fun () -> i * i)) in
        List.map (Par.await p) futs)
  in
  Alcotest.(check (list int)) "pool still computes"
    (List.init 8 (fun i -> i * i))
    results;
  let cval name = Metrics.counter_value (Metrics.counter name) in
  Alcotest.(check int) "every submit counted" 8 (cval "par.tasks_submitted");
  Alcotest.(check int) "every task completed" 8 (cval "par.tasks_completed");
  (* each task ran exactly once: either help-run by the submitter
     ("stolen") or on a worker (one busy observation) *)
  let busy =
    match List.assoc_opt "par.worker_busy_us" (Metrics.snapshot ()) with
    | Some (Metrics.Histogram { count; _ }) -> count
    | _ -> 0
  in
  Alcotest.(check int) "stolen + worker-run covers the batch" 8
    (cval "par.tasks_stolen" + busy);
  Alcotest.(check bool) "queue drained" true
    (Metrics.gauge_value (Metrics.gauge "par.queue_depth") = 0.0);
  Obs.reset ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "live"
    [
      ( "rates",
        [
          Alcotest.test_case "rates_between" `Quick test_rates_between;
          Alcotest.test_case "ticker ring" `Quick test_ticker_ring;
        ] );
      ( "statsd",
        [
          Alcotest.test_case "socket round trip" `Quick test_statsd_roundtrip;
          Alcotest.test_case "live path refused" `Quick
            test_statsd_live_path_refused;
          Alcotest.test_case "stale socket replaced" `Quick
            test_statsd_stale_socket_replaced;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "stall then recover" `Quick
            test_watchdog_stall_then_recover;
        ] );
      ( "progress",
        [
          Alcotest.test_case "reports max iteration" `Quick
            test_progress_reports_max_iteration;
          Alcotest.test_case "rate limited" `Quick test_progress_rate_limited;
          Alcotest.test_case "off by default" `Quick
            test_progress_off_by_default;
        ] );
      ( "scheduler",
        [ Alcotest.test_case "pool metrics" `Quick test_par_metrics ] );
    ]
