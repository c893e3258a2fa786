(* The verification server. Protocol tests pin the codec (total in both
   directions, spec JSON round-trips losslessly); daemon tests drive a
   real listener over a temp socket: verdicts bit-identical to a direct
   Jobs.run, the content-addressed cache answering repeats, warm BMC
   sessions resuming across requests (and evicting LRU past capacity),
   typed errors for malformed and oversized lines, cancellation on
   explicit cancel and on mid-job disconnect, fault isolation, and
   --proof certificates from served jobs passing the independent DRAT
   checker. The robustness suites cover the journal (checksummed
   replay, truncated-tail tolerance, crash recovery, the cross-process
   lock), admission control (typed overload sheds carrying retry_after_s
   and the degraded-mode cycle), dispatcher supervision (requeue under
   injected death, bounded give-up), a malformed-wire fuzz corpus, the
   retrying client's deterministic backoff schedule, and stale-socket
   replacement at bind. *)

module P = Server.Protocol
module Jobs = Server.Jobs
module Daemon = Server.Daemon
module Client = Server.Client
module Journal = Server.Journal
module Json = Obs.Json
module Proof = Smt.Proof

(* ------------------------------------------------------------------ *)
(* fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let sock_counter = ref 0

let fresh_path ext =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "test_server_%d_%d%s" (Unix.getpid ()) !sock_counter ext)

let fresh_socket () = fresh_path ".sock"

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* CI's SCIDUCTION_JOBS leg runs the served jobs as tasks of a domain
   pool of that width, as [serve --jobs N] does; unset, the dispatcher
   threads run them *)
let with_daemon ?dispatchers ?journal ?queue_limit ?retry_after_s
    ?degrade_after_s ?restart_budget ?warm_capacity f =
  let socket = fresh_socket () in
  let jobs = Par.env_jobs_exn ~default:1 () in
  let pool = if jobs > 1 then Some (Par.Pool.create ~jobs ()) else None in
  Fun.protect ~finally:(fun () -> Option.iter Par.Pool.shutdown pool)
  @@ fun () ->
  match
    Daemon.start ?pool
      ~dispatchers:(Option.value dispatchers ~default:1)
      ?journal ?queue_limit ?retry_after_s ?degrade_after_s ?restart_budget
      ?warm_capacity ~socket ()
  with
  | Error e -> Alcotest.failf "daemon start: %s" e
  | Ok d -> Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f socket)

(* a small shift register: SAFE through any depth, solved in well under
   a second, and (being all-unsat) a certificate per depth with --proof *)
let shift_spec ?(len = 12) max_depth =
  Jobs.Bmc
    {
      system =
        { shift = Some len; junk = 8; bits = 3; modulus = 6; bad_value = 7 };
      max_depth;
    }

(* a blocker: a sweep over a wide counter to a depth no sweep reaches
   in a test's lifetime, so it holds its dispatcher until its budget
   cancel hook fires, however fast the SAT core gets. Every test
   cancels it (and Daemon.stop cancels it when a test fails first).
   For scale: on one core of a 2-vCPU VM the sweep is clean through
   depth 1200 in about 0.25 s and through depth 5700 in 6 s, by when
   a one-shot CLI run of it holds about 90 MB. *)
let slow_spec =
  Jobs.Bmc
    {
      system =
        { shift = None; junk = 40; bits = 3; modulus = 6; bad_value = 7 };
      max_depth = 1_000_000;
    }

let stat socket name =
  match Client.stats ~socket () with
  | Error e -> Alcotest.failf "stats: %s" e
  | Ok j -> (
    match Option.bind (Json.member name j) Json.to_int with
    | Some v -> v
    | None -> Alcotest.failf "stats reply lacks %s" name)

(* poll [probe] every 50 ms until it answers [Ok v]; the daemon moves
   in background threads, so give it a bounded moment, and past that
   fail with the probe's last word rather than carry on *)
let poll probe =
  let rec go tries =
    match probe () with
    | Ok v -> v
    | Error last when tries = 0 -> Alcotest.failf "gave up waiting: %s" last
    | Error _ ->
      Thread.delay 0.05;
      go (tries - 1)
  in
  go 100

(* poll the stats op until [pred] holds. The counters behind it are
   process-wide, so a predicate like [done >= 1] may already hold from
   an earlier test's daemon. *)
let eventually socket name pred =
  poll (fun () ->
      let v = stat socket name in
      if pred v then Ok v
      else Error (Printf.sprintf "stat %s is still %d" name v))

(* poll a daemon's journal until job [id] has its terminal record *)
let until_terminal path id =
  poll (fun () ->
      match Journal.replay path with
      | Error e -> Error (Printf.sprintf "journal replay: %s" e)
      | Ok r
        when List.exists
               (fun s -> s.Journal.sj_id = id)
               r.Journal.rj_pending ->
        Error (Printf.sprintf "job %s has no terminal record yet" id)
      | Ok _ -> Ok ())

(* ----- raw wire access, for the malformed-input tests ----- *)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (fd, Unix.in_channel_of_descr fd)

let send_raw fd line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let recv fd_ic =
  match input_line (snd fd_ic) with
  | exception End_of_file -> Alcotest.fail "server closed the connection"
  | line -> (
    match P.parse_response line with
    | Ok r -> r
    | Error e -> Alcotest.failf "unparseable response %S: %s" line e)

let send_req fd req = send_raw fd (Json.to_string (P.request_to_json req))

let err_code = function
  | P.Err { code; _ } -> P.error_code_to_string code
  | r -> Alcotest.failf "expected an error, got %s" (P.response_to_line r)

(* ------------------------------------------------------------------ *)
(* codec                                                               *)
(* ------------------------------------------------------------------ *)

let all_specs =
  [
    Jobs.Deobfuscate { program = `P1; width = 6 };
    Jobs.Timing { source = None; bits = 5; tau = Some 400 };
    Jobs.Timing
      {
        source =
          Some "program tiny (a) -> (x) width 8 {\n  x := a + 1;\n}\n";
        bits = 4;
        tau = None;
      };
    Jobs.Cegar { junk = 5; bits = 3; modulus = 6; bad_value = 7 };
    shift_spec 9;
    Jobs.Invgen { circuit = `Twin; n = 3 };
    Jobs.Lstar { states = 4 };
  ]

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      match Jobs.of_json (Jobs.to_json spec) with
      | Error e -> Alcotest.failf "%s: %s" (Jobs.kind spec) e
      | Ok spec' ->
        Alcotest.(check bool)
          (Jobs.kind spec ^ " survives JSON")
          true (spec = spec');
        Alcotest.(check string)
          (Jobs.kind spec ^ " key stable")
          (Jobs.key spec) (Jobs.key spec'))
    all_specs

(* both <TA> verdicts of a timing job, byte for byte *)
let test_timing_ta_verdicts () =
  let verdict tau =
    let o =
      Jobs.run (Jobs.Timing { source = None; bits = 6; tau = Some tau })
    in
    (o.Jobs.verdict, o.Jobs.code)
  in
  let wcet = "WCET 550 cycles at base=123, exp=63\n" in
  Alcotest.(check (pair string int)) "yes"
    (wcet ^ "<TA>: execution time is always <= 2000", 0)
    (verdict 2000);
  Alcotest.(check (pair string int)) "no"
    (wcet ^ "<TA>: NO \u{2014} exp=63 takes 550 cycles", 1)
    (verdict 500)

let test_request_roundtrip () =
  let requests =
    [
      P.Ping; P.Stats; P.Shutdown; P.Cancel "job-7";
      P.Submit
        {
          P.id = "bmc-1";
          spec = shift_spec 9;
          timeout = Some 2.5;
          max_conflicts = Some 4000;
          priority = -2;
        };
      P.Submit
        {
          P.id = "lstar-1";
          spec = Jobs.Lstar { states = 4 };
          timeout = None;
          max_conflicts = None;
          priority = 0;
        };
    ]
  in
  List.iter
    (fun req ->
      match P.parse_request (Json.to_string (P.request_to_json req)) with
      | Error (_, msg) -> Alcotest.failf "request rejected: %s" msg
      | Ok req' ->
        Alcotest.(check bool) "request survives the wire" true (req = req'))
    requests

let test_response_roundtrip () =
  let responses =
    [
      P.Ack "a"; P.Pong; P.Bye;
      P.Result
        { id = "a"; verdict = "SAFE within depth 9"; code = 0; cached = true;
          ms = 12.5 };
      P.Err
        {
          code = P.Fault_injected;
          message = "boom";
          id = Some "a";
          retry_after_s = None;
        };
      P.Err
        {
          code = P.Oversized;
          message = "too long";
          id = None;
          retry_after_s = None;
        };
      P.Err
        {
          code = P.Overloaded;
          message = "queue full";
          id = Some "b";
          retry_after_s = Some 0.5;
        };
      P.Err
        {
          code = P.Internal_error;
          message = "journal write failed";
          id = Some "c";
          retry_after_s = None;
        };
      P.StatsReply (Json.Obj [ ("queued", Json.Int 3) ]);
    ]
  in
  List.iter
    (fun resp ->
      match P.parse_response (Json.to_string (P.response_to_json resp)) with
      | Error e -> Alcotest.failf "response rejected: %s" e
      | Ok resp' ->
        Alcotest.(check bool) "response survives the wire" true (resp = resp'))
    responses

let test_parse_request_total () =
  let expect code line =
    match P.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error (c, _) ->
      Alcotest.(check string) line
        (P.error_code_to_string code)
        (P.error_code_to_string c)
  in
  expect P.Parse_error "not json";
  expect P.Parse_error "{\"v\": }";
  expect P.Bad_request "{\"op\":\"ping\"}";
  expect P.Bad_request "{\"v\":\"sciduction.serve/0\",\"op\":\"ping\"}";
  expect P.Bad_request
    (Printf.sprintf "{\"v\":%S,\"op\":\"submit\",\"id\":\"x\"}" P.version);
  expect P.Bad_request (Printf.sprintf "{\"v\":%S}" P.version);
  expect P.Unknown_op (Printf.sprintf "{\"v\":%S,\"op\":\"fly\"}" P.version)

(* ------------------------------------------------------------------ *)
(* serving: verdict parity, cache, warm sessions                       *)
(* ------------------------------------------------------------------ *)

let test_served_verdict_matches_direct () =
  with_daemon @@ fun socket ->
  let spec = shift_spec ~len:12 14 in
  let direct = Jobs.run spec in
  (match Client.submit ~socket spec with
  | Error _ -> Alcotest.fail "submit failed"
  | Ok o ->
    Alcotest.(check string) "served verdict is the one-shot verdict"
      direct.Jobs.verdict o.Client.verdict;
    Alcotest.(check int) "served exit code too" direct.Jobs.code
      o.Client.code;
    Alcotest.(check bool) "first answer is computed" false o.Client.cached);
  match Client.submit ~socket spec with
  | Error _ -> Alcotest.fail "repeat submit failed"
  | Ok o ->
    Alcotest.(check bool) "repeat answer comes from the cache" true
      o.Client.cached;
    Alcotest.(check string) "cached verdict identical" direct.Jobs.verdict
      o.Client.verdict

(* a program whose loop outruns the unrolling bound has no feasible
   path: a typed verdict, not an exception *)
let no_path_timing =
  Jobs.Timing
    {
      source =
        Some
          "program loop8 (a) -> (x) width 8 {\n  x := 0;\n  i := 0;\n\
          \  while (i < 8) {\n    x := x + a;\n    i := i + 1;\n  }\n}\n";
      bits = 5;
      tau = None;
    }

let test_served_no_feasible_path () =
  let o = Jobs.run no_path_timing in
  Alcotest.(check (pair string int)) "direct" ("no feasible paths", 1)
    (o.Jobs.verdict, o.Jobs.code);
  with_daemon @@ fun socket ->
  match Client.submit ~socket no_path_timing with
  | Error _ -> Alcotest.fail "submit failed"
  | Ok o ->
    Alcotest.(check (pair string int)) "served" ("no feasible paths", 1)
      (o.Client.verdict, o.Client.code)

let test_unsafe_verdict_matches_direct () =
  with_daemon @@ fun socket ->
  (* reachable bad value: the UNSAFE path, trace text included *)
  let spec =
    Jobs.Bmc
      {
        system =
          { shift = None; junk = 2; bits = 3; modulus = 6; bad_value = 4 };
        max_depth = 16;
      }
  in
  let direct = Jobs.run spec in
  match Client.submit ~socket spec with
  | Error _ -> Alcotest.fail "submit failed"
  | Ok o ->
    Alcotest.(check string) "served UNSAFE verdict identical"
      direct.Jobs.verdict o.Client.verdict;
    Alcotest.(check int) "exit code 1" 1 o.Client.code

let test_warm_sessions_resume () =
  with_daemon @@ fun socket ->
  let before = stat socket "warm_hits" in
  let shallow = shift_spec ~len:16 6 and deep = shift_spec ~len:16 12 in
  (match Client.submit ~socket shallow with
  | Ok o ->
    Alcotest.(check string) "shallow verdict" (Jobs.run shallow).Jobs.verdict
      o.Client.verdict
  | Error _ -> Alcotest.fail "shallow submit failed");
  (match Client.submit ~socket deep with
  | Ok o ->
    (* the warm continuation must answer exactly like a cold sweep *)
    Alcotest.(check string) "warm verdict is the cold verdict"
      (Jobs.run deep).Jobs.verdict o.Client.verdict;
    Alcotest.(check bool) "deep query is not a cache hit" false
      o.Client.cached
  | Error _ -> Alcotest.fail "deep submit failed");
  Alcotest.(check bool) "the deep query resumed the warm session" true
    (stat socket "warm_hits" > before)

let test_concurrent_clients_isolated () =
  with_daemon ~dispatchers:2 @@ fun socket ->
  let spec_a = shift_spec ~len:10 12
  and spec_b = Jobs.Cegar { junk = 6; bits = 3; modulus = 6; bad_value = 7 } in
  let expect_a = (Jobs.run spec_a).Jobs.verdict
  and expect_b = (Jobs.run spec_b).Jobs.verdict in
  let got_a = ref (Error (`Transport "unset"))
  and got_b = ref (Error (`Transport "unset")) in
  let ta = Thread.create (fun () -> got_a := Client.submit ~socket spec_a) ()
  and tb = Thread.create (fun () -> got_b := Client.submit ~socket spec_b) () in
  Thread.join ta;
  Thread.join tb;
  (match !got_a with
  | Ok o ->
    Alcotest.(check string) "client A got A's verdict" expect_a
      o.Client.verdict
  | Error _ -> Alcotest.fail "client A failed");
  match !got_b with
  | Ok o ->
    Alcotest.(check string) "client B got B's verdict" expect_b
      o.Client.verdict
  | Error _ -> Alcotest.fail "client B failed"

(* ------------------------------------------------------------------ *)
(* typed errors on the wire                                            *)
(* ------------------------------------------------------------------ *)

let test_malformed_lines_typed () =
  with_daemon @@ fun socket ->
  let conn = raw_connect socket in
  Fun.protect ~finally:(fun () -> Unix.close (fst conn)) @@ fun () ->
  let fd = fst conn in
  send_raw fd "this is not json";
  Alcotest.(check string) "garbage -> parse_error" "parse_error"
    (err_code (recv conn));
  send_raw fd "{\"op\":\"ping\"}";
  Alcotest.(check string) "unversioned -> bad_request" "bad_request"
    (err_code (recv conn));
  send_raw fd (Printf.sprintf "{\"v\":%S,\"op\":\"levitate\"}" P.version);
  Alcotest.(check string) "unknown op -> unknown_op" "unknown_op"
    (err_code (recv conn));
  (* the connection survives every rejection *)
  send_req fd P.Ping;
  (match recv conn with
  | P.Pong -> ()
  | r -> Alcotest.failf "expected pong, got %s" (P.response_to_line r));
  (* a line past the cap is answered [oversized], not dropped *)
  send_raw fd
    (Printf.sprintf "{\"v\":%S,\"op\":\"ping\",\"pad\":%S}" P.version
       (String.make (P.max_line_bytes + 1024) 'x'));
  Alcotest.(check string) "oversized line -> oversized" "oversized"
    (err_code (recv conn));
  send_req fd P.Ping;
  match recv conn with
  | P.Pong -> ()
  | r -> Alcotest.failf "expected pong after oversized, got %s"
           (P.response_to_line r)

let test_cancel_unknown_job () =
  with_daemon @@ fun socket ->
  match Client.cancel ~socket ~id:"no-such-job" with
  | Ok () -> Alcotest.fail "cancelling a phantom job succeeded"
  | Error msg ->
    Alcotest.(check bool) "typed unknown_job error" true
      (String.length msg >= 11 && String.sub msg 0 11 = "unknown_job")

let test_duplicate_id_and_explicit_cancel () =
  with_daemon ~dispatchers:1 @@ fun socket ->
  let conn = raw_connect socket in
  Fun.protect ~finally:(fun () -> Unix.close (fst conn)) @@ fun () ->
  let fd = fst conn in
  let submit id spec =
    P.Submit { P.id; spec; timeout = None; max_conflicts = None; priority = 0 }
  in
  (* [block] occupies the only dispatcher, so [dup] stays queued *)
  send_req fd (submit "block" slow_spec);
  (match recv conn with
  | P.Ack "block" -> ()
  | r -> Alcotest.failf "expected ack, got %s" (P.response_to_line r));
  send_req fd (submit "dup" (Jobs.Lstar { states = 3 }));
  (match recv conn with
  | P.Ack "dup" -> ()
  | r -> Alcotest.failf "expected ack, got %s" (P.response_to_line r));
  send_req fd (submit "dup" (Jobs.Lstar { states = 3 }));
  Alcotest.(check string) "live id refused" "duplicate_id"
    (err_code (recv conn));
  (* cancelling the queued job answers the canceller and the owner; the
     two lines share this connection in either order *)
  send_req fd (P.Cancel "dup");
  let classify = function
    | P.Ack "dup" -> `Ack
    | P.Err { code = P.Cancelled; id = Some "dup"; _ } -> `Cancelled
    | r -> Alcotest.failf "unexpected response %s" (P.response_to_line r)
  in
  let a = classify (recv conn) and b = classify (recv conn) in
  Alcotest.(check bool) "cancel ack and owner notification" true
    ((a = `Ack && b = `Cancelled) || (a = `Cancelled && b = `Ack))

let test_disconnect_cancels_inflight () =
  with_daemon @@ fun socket ->
  let before = stat socket "cancelled" in
  let conn = raw_connect socket in
  send_req (fst conn)
    (P.Submit
       {
         P.id = "doomed"; spec = slow_spec; timeout = None;
         max_conflicts = None; priority = 0;
       });
  (match recv conn with
  | P.Ack "doomed" -> ()
  | r -> Alcotest.failf "expected ack, got %s" (P.response_to_line r));
  (* the client vanishes mid-job: its work must be torn down, not run
     to completion against nobody *)
  Unix.close (fst conn);
  let cancelled = eventually socket "cancelled" (fun v -> v > before) in
  Alcotest.(check bool) "disconnect cancelled the job" true
    (cancelled > before);
  ignore (eventually socket "inflight" (fun v -> v = 0) : int)

(* ------------------------------------------------------------------ *)
(* fault isolation                                                     *)
(* ------------------------------------------------------------------ *)

let test_fault_is_typed_and_isolated () =
  with_daemon ~dispatchers:2 @@ fun socket ->
  Fun.protect ~finally:Fault.deactivate @@ fun () ->
  (* [survivor] starts running before the injector arms, so its draw at
     the Serve_job site already happened and cannot fire *)
  let conn = raw_connect socket in
  Fun.protect ~finally:(fun () -> Unix.close (fst conn)) @@ fun () ->
  send_req (fst conn)
    (P.Submit
       {
         P.id = "survivor"; spec = slow_spec; timeout = None;
         max_conflicts = None; priority = 0;
       });
  (match recv conn with
  | P.Ack "survivor" -> ()
  | r -> Alcotest.failf "expected ack, got %s" (P.response_to_line r));
  ignore (eventually socket "inflight" (fun v -> v >= 1) : int);
  (* only the job site: an armed reader/dispatcher site would kill the
     connection instead of answering the typed job fault under test *)
  Fault.activate ~probability:1.0 ~sites:[ Fault.Serve_job ] ~seed:77 ();
  (match Client.submit ~socket (Jobs.Lstar { states = 3 }) with
  | Error (`Server f) ->
    Alcotest.(check string) "faulted job answers a typed error"
      "fault_injected" f.Client.fcode
  | Ok _ -> Alcotest.fail "armed fault did not fire"
  | Error (`Transport msg) -> Alcotest.failf "transport error: %s" msg);
  Fault.deactivate ();
  (* the server survives the fault and serves the next job *)
  (match Client.submit ~socket (Jobs.Lstar { states = 3 }) with
  | Ok o ->
    Alcotest.(check string) "post-fault job runs normally"
      (Jobs.run (Jobs.Lstar { states = 3 })).Jobs.verdict o.Client.verdict
  | Error _ -> Alcotest.fail "post-fault submit failed");
  (* the in-flight job was untouched by the fault: it is still live and
     answers its own (cancelled) verdict rather than fault_injected *)
  send_req (fst conn) (P.Cancel "survivor");
  let saw_fault = ref false and saw_cancel = ref false in
  for _ = 1 to 2 do
    match recv conn with
    | P.Ack "survivor" -> ()
    | P.Err { code = P.Cancelled; _ } -> saw_cancel := true
    | P.Err { code = P.Fault_injected; _ } -> saw_fault := true
    | r -> Alcotest.failf "unexpected response %s" (P.response_to_line r)
  done;
  Alcotest.(check bool) "survivor was not fault-killed" false !saw_fault;
  Alcotest.(check bool) "survivor answered its cancel" true !saw_cancel

(* ------------------------------------------------------------------ *)
(* --proof through the server                                          *)
(* ------------------------------------------------------------------ *)

let test_served_proofs_check () =
  let prefix =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "test_server_proof_%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Proof.disable ();
      Certs.cleanup_spools prefix)
  @@ fun () ->
  Proof.enable ~prefix;
  with_daemon (fun socket ->
      match Client.submit ~socket (shift_spec ~len:10 8) with
      | Error _ -> Alcotest.fail "submit failed"
      | Ok o ->
        Alcotest.(check int) "safe sweep" 0 o.Client.code);
  Proof.disable ();
  match Proof.read_index ~prefix with
  | Error e -> Alcotest.failf "index unreadable: %s" e
  | Ok entries ->
    Alcotest.(check bool) "served unsat verdicts issued certificates" true
      (entries <> []);
    List.iteri
      (fun i entry ->
        let cnf, drat = Certs.reconstruct entry in
        match Certs.check_strings cnf drat with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "certificate %d rejected: %s" i e)
      entries

(* ------------------------------------------------------------------ *)
(* journal: checksummed records, tail tolerance, crash recovery        *)
(* ------------------------------------------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rm_f path = try Sys.remove path with Sys_error _ -> ()

let submit_rec ?(starts = 0) id spec =
  Journal.Submitted
    {
      Journal.sj_id = id;
      sj_key = Jobs.key spec;
      sj_spec = spec;
      sj_timeout = None;
      sj_max_conflicts = None;
      sj_priority = 0;
      sj_starts = starts;
    }

(* damage one payload byte; the checksum must catch it *)
let corrupt line =
  let i = String.length line - 3 in
  String.mapi
    (fun j c -> if j = i then (if c = 'x' then 'y' else 'x') else c)
    line

let test_journal_replay_roundtrip () =
  let path = fresh_path ".journal" in
  Fun.protect ~finally:(fun () -> rm_f path) @@ fun () ->
  let a = shift_spec ~len:10 6 and b = Jobs.Lstar { states = 3 } in
  let records =
    [
      submit_rec "a" a;
      Journal.Started { id = "a" };
      submit_rec "b" b;
      Journal.Done
        {
          id = "b"; key = Jobs.key b; verdict = "LEARNED 3-state machine";
          code = 0; cacheable = true;
        };
      Journal.Cancelled { id = "never-submitted" };
    ]
  in
  write_file path (String.concat "" (List.map Journal.line_of_record records));
  match Journal.replay path with
  | Error e -> Alcotest.failf "replay: %s" e
  | Ok r ->
    Alcotest.(check int) "all records read" 5 r.Journal.rj_records;
    Alcotest.(check int) "nothing dropped" 0 r.Journal.rj_dropped;
    Alcotest.(check (list (pair string int))) "only the started job pends"
      [ ("a", 1) ]
      (List.map
         (fun s -> (s.Journal.sj_id, s.Journal.sj_starts))
         r.Journal.rj_pending);
    Alcotest.(check bool) "pending spec survives the round-trip" true
      ((List.hd r.Journal.rj_pending).Journal.sj_spec = a);
    Alcotest.(check (list (triple string string int)))
      "the cacheable verdict is recovered"
      [ (Jobs.key b, "LEARNED 3-state machine", 0) ]
      r.Journal.rj_results;
    (* a journal that never existed is an empty journal *)
    match Journal.replay (path ^ ".nope") with
    | Error e -> Alcotest.failf "missing-file replay: %s" e
    | Ok r ->
      Alcotest.(check int) "no records" 0 r.Journal.rj_records;
      Alcotest.(check int) "no pending" 0 (List.length r.Journal.rj_pending)

let test_journal_tail_tolerance () =
  let path = fresh_path ".journal" in
  Fun.protect ~finally:(fun () -> rm_f path) @@ fun () ->
  let a = shift_spec ~len:10 6 and b = Jobs.Lstar { states = 3 } in
  let good =
    [ submit_rec "a" a; Journal.Started { id = "a" }; submit_rec "b" b ]
  in
  let done_b =
    Journal.Done
      { id = "b"; key = Jobs.key b; verdict = "x"; code = 0; cacheable = true }
  in
  let tail =
    (* a bit-flipped record, then a half-written one: a crash mid-append *)
    corrupt (Journal.line_of_record done_b)
    ^
    let l = Journal.line_of_record (submit_rec "c" a) in
    String.sub l 0 (String.length l / 2)
  in
  write_file path
    (String.concat "" (List.map Journal.line_of_record good) ^ tail);
  match Journal.replay path with
  | Error e -> Alcotest.failf "replay: %s" e
  | Ok r ->
    Alcotest.(check int) "the intact prefix is applied" 3 r.Journal.rj_records;
    Alcotest.(check int) "the damaged tail is dropped" 2 r.Journal.rj_dropped;
    Alcotest.(check (list string)) "b's lost Done leaves it pending"
      [ "a"; "b" ]
      (List.map (fun s -> s.Journal.sj_id) r.Journal.rj_pending)

let test_journal_crash_recovery () =
  let path = fresh_path ".journal" in
  Fun.protect ~finally:(fun () ->
      rm_f path;
      rm_f (path ^ ".lock"))
  @@ fun () ->
  let spec_a = shift_spec ~len:13 10 and spec_b = shift_spec ~len:14 9 in
  let direct_b = Jobs.run spec_b in
  (* the journal a kill -9 would leave behind: an acked job with no
     terminal record, and a finished job whose verdict was cacheable *)
  write_file path
    (Journal.line_of_record (submit_rec "replayed-a" spec_a)
    ^ Journal.line_of_record
        (Journal.Done
           {
             id = "gone";
             key = Jobs.key spec_b;
             verdict = direct_b.Jobs.verdict;
             code = direct_b.Jobs.code;
             cacheable = true;
           }));
  with_daemon ~journal:path (fun socket ->
      (* the acked-but-unfinished job reruns without any client *)
      until_terminal path "replayed-a";
      (match Client.submit ~socket spec_b with
      | Error _ -> Alcotest.fail "submit of recovered-verdict spec failed"
      | Ok o ->
        Alcotest.(check bool) "journal rebuilt the cache" true o.Client.cached;
        Alcotest.(check string) "recovered verdict byte-identical"
          direct_b.Jobs.verdict o.Client.verdict);
      (match Client.submit ~socket spec_a with
      | Error _ -> Alcotest.fail "submit of replayed spec failed"
      | Ok o ->
        Alcotest.(check bool) "replayed job's verdict serves from cache" true
          o.Client.cached;
        Alcotest.(check string) "replayed verdict is the direct verdict"
          (Jobs.run spec_a).Jobs.verdict o.Client.verdict);
      (* the journal is single-owner: a second daemon must be refused *)
      match Daemon.start ~socket:(fresh_socket ()) ~journal:path () with
      | Ok d ->
        Daemon.stop d;
        Alcotest.fail "two daemons shared one journal"
      | Error e ->
        Alcotest.(check bool) "lock named in the refusal" true
          (contains e "lock"));
  (* after a clean stop: no pending work, no stale lock *)
  Alcotest.(check bool) "lock file released" false
    (Sys.file_exists (path ^ ".lock"));
  match Journal.replay path with
  | Error e -> Alcotest.failf "post-stop replay: %s" e
  | Ok r ->
    Alcotest.(check int) "every acked job reached a terminal record" 0
      (List.length r.Journal.rj_pending);
    Alcotest.(check bool) "both verdicts are on disk" true
      (List.length r.Journal.rj_results >= 2)

(* ------------------------------------------------------------------ *)
(* admission control and degraded mode                                 *)
(* ------------------------------------------------------------------ *)

let blank_submit id spec =
  P.Submit { P.id; spec; timeout = None; max_conflicts = None; priority = 0 }

let test_overload_shed_and_client_retry () =
  with_daemon ~dispatchers:1 ~queue_limit:1 ~retry_after_s:0.07
    ~degrade_after_s:30.0
  @@ fun socket ->
  let conn = raw_connect socket in
  Fun.protect ~finally:(fun () ->
      try Unix.close (fst conn) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let fd = fst conn in
  send_req fd (blank_submit "block" slow_spec);
  (match recv conn with
  | P.Ack "block" -> ()
  | r -> Alcotest.failf "expected ack, got %s" (P.response_to_line r));
  ignore (eventually socket "inflight" (fun v -> v >= 1) : int);
  send_req fd (blank_submit "q1" (Jobs.Lstar { states = 3 }));
  (match recv conn with
  | P.Ack "q1" -> ()
  | r -> Alcotest.failf "expected ack, got %s" (P.response_to_line r));
  (* the queue is at its high watermark: shed, typed, with the hint *)
  send_req fd (blank_submit "q2" (Jobs.Lstar { states = 5 }));
  (match recv conn with
  | P.Err { code = P.Overloaded; id = Some "q2"; retry_after_s = Some s; _ }
    ->
    Alcotest.(check (float 1e-6)) "hint is the configured retry_after_s" 0.07
      s
  | r -> Alcotest.failf "expected overloaded, got %s" (P.response_to_line r));
  Alcotest.(check bool) "shed counted" true (stat socket "shed" >= 1);
  (* a retrying client rides the burst out; its first delay is the
     server's hint (larger than its own base backoff), and the call
     lands once the queue drains *)
  let sleeps = ref [] in
  let retry =
    {
      Client.attempts = 60;
      base_s = 0.01;
      cap_s = 0.02;
      sleep =
        (fun d ->
          sleeps := d :: !sleeps;
          Thread.delay d);
    }
  in
  let r0 = Client.retries () in
  let canceller =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        ignore (Client.cancel ~socket ~id:"q1" : (unit, string) result);
        ignore (Client.cancel ~socket ~id:"block" : (unit, string) result))
      ()
  in
  let spec = Jobs.Lstar { states = 4 } in
  let res = Client.submit ~socket ~retry spec in
  Thread.join canceller;
  (match res with
  | Ok o ->
    Alcotest.(check string) "the retried submit got the real verdict"
      (Jobs.run spec).Jobs.verdict o.Client.verdict
  | Error _ -> Alcotest.fail "retrying client never landed");
  (match List.rev !sleeps with
  | first :: _ ->
    Alcotest.(check (float 1e-6)) "first backoff honors the server hint"
      0.07 first
  | [] -> Alcotest.fail "client landed without ever being shed");
  Alcotest.(check bool) "client retries counted" true (Client.retries () > r0)

let test_degraded_mode_cycle () =
  with_daemon ~dispatchers:1 ~queue_limit:4 ~degrade_after_s:0.0
    ~retry_after_s:0.05
  @@ fun socket ->
  (* a resident warm family first: degraded mode must keep serving it *)
  let warm_shallow = shift_spec ~len:15 6 and warm_deep = shift_spec ~len:15 12 in
  (match Client.submit ~socket warm_shallow with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "pre-warm submit failed");
  let conn_block = raw_connect socket
  and conn_fill = raw_connect socket
  and conn_warm = raw_connect socket in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun c -> try Unix.close (fst c) with Unix.Unix_error _ -> ())
        [ conn_block; conn_fill; conn_warm ])
  @@ fun () ->
  let submit conn id spec =
    send_req (fst conn) (blank_submit id spec);
    match recv conn with
    | P.Ack got when got = id -> `Ack
    | P.Err { code; retry_after_s; _ } ->
      `Err (P.error_code_to_string code, retry_after_s)
    | r -> Alcotest.failf "unexpected response %s" (P.response_to_line r)
  in
  (* wedge the only dispatcher, then fill the queue to the watermark;
     the pre-warm job can still count as in flight while its dispatcher
     retires it, so wait for the blocker to leave the queue *)
  (match submit conn_block "block" slow_spec with
  | `Ack -> ()
  | `Err _ -> Alcotest.fail "blocker shed");
  ignore (eventually socket "queued" (fun v -> v = 0) : int);
  ignore (eventually socket "inflight" (fun v -> v >= 1) : int);
  List.iter
    (fun id ->
      match submit conn_fill id (Jobs.Lstar { states = 3 }) with
      | `Ack -> ()
      | `Err _ -> Alcotest.failf "%s shed below the watermark" id)
    [ "q1"; "q2"; "q3"; "q4" ];
  (* watermark hit: first shed opens the sustain window; with a
     zero-length window the second shed flips the daemon degraded *)
  (match submit conn_fill "q5" (Jobs.Lstar { states = 3 }) with
  | `Err ("overloaded", Some s) ->
    Alcotest.(check (float 1e-6)) "shed carries the hint" 0.05 s
  | _ -> Alcotest.fail "q5 was not shed overloaded");
  (match submit conn_fill "q6" (Jobs.Lstar { states = 3 }) with
  | `Err ("overloaded", _) -> ()
  | _ -> Alcotest.fail "q6 was not shed");
  Alcotest.(check int) "daemon is degraded" 1 (stat socket "degraded");
  Alcotest.(check bool) "sheds counted" true (stat socket "shed" >= 2);
  (* drop below the high watermark: still degraded, so fresh non-warm
     work is shed while the warm family is admitted *)
  (match Client.cancel ~socket ~id:"q4" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cancel q4: %s" e);
  (match recv conn_fill with
  | P.Err { code = P.Cancelled; id = Some "q4"; _ } -> ()
  | r -> Alcotest.failf "expected q4's cancel, got %s" (P.response_to_line r));
  (match submit conn_fill "fresh" (Jobs.Lstar { states = 4 }) with
  | `Err ("overloaded", _) -> ()
  | _ -> Alcotest.fail "degraded daemon admitted fresh non-warm work");
  (match submit conn_warm "warmjob" warm_deep with
  | `Ack -> ()
  | `Err _ -> Alcotest.fail "degraded daemon shed a warm-family job");
  (* drain the queue: pressure gone, no dispatcher deaths → exit *)
  List.iter
    (fun id -> ignore (Client.cancel ~socket ~id : (unit, string) result))
    [ "q1"; "q2"; "q3"; "block" ];
  (match recv conn_warm with
  | P.Result { id = "warmjob"; verdict; cached; _ } ->
    Alcotest.(check string) "warm verdict is the cold verdict"
      (Jobs.run warm_deep).Jobs.verdict verdict;
    Alcotest.(check bool) "computed, not cached" false cached
  | r -> Alcotest.failf "unexpected response %s" (P.response_to_line r));
  ignore (eventually socket "degraded" (fun v -> v = 0) : int);
  Alcotest.(check int) "degraded exited after the drain" 0
    (stat socket "degraded");
  match Client.submit ~socket ~retry:Client.no_retry (Jobs.Lstar { states = 4 })
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "recovered daemon refused fresh work"

(* ------------------------------------------------------------------ *)
(* dispatcher supervision                                              *)
(* ------------------------------------------------------------------ *)

let test_supervisor_requeues_and_job_survives () =
  with_daemon ~dispatchers:1 ~restart_budget:5 @@ fun socket ->
  Fun.protect ~finally:Fault.deactivate @@ fun () ->
  (* pick a seed whose Serve_dispatch draw sequence is fire, no-fire:
     the first claim kills the dispatcher, the requeued claim runs *)
  let rec find_seed s =
    Fault.activate ~probability:0.5 ~sites:[ Fault.Serve_dispatch ] ~seed:s ();
    let a = Fault.fire Fault.Serve_dispatch in
    let b = Fault.fire Fault.Serve_dispatch in
    Fault.deactivate ();
    if a && not b then s else find_seed (s + 1)
  in
  let seed = find_seed 0 in
  (* the registry counters are process-global: assert deltas *)
  let rq0 = stat socket "requeued" and rs0 = stat socket "dispatcher_restarts" in
  Fault.activate ~probability:0.5 ~sites:[ Fault.Serve_dispatch ] ~seed ();
  let spec = Jobs.Lstar { states = 4 } in
  (match Client.submit ~socket ~retry:Client.no_retry spec with
  | Ok o ->
    Alcotest.(check string) "verdict survived the dispatcher death"
      (Jobs.run spec).Jobs.verdict o.Client.verdict;
    Alcotest.(check bool) "computed, not cached" false o.Client.cached
  | Error _ -> Alcotest.fail "submit failed despite the requeue");
  Fault.deactivate ();
  Alcotest.(check int) "exactly one requeue" 1 (stat socket "requeued" - rq0);
  Alcotest.(check int) "exactly one restart" 1
    (stat socket "dispatcher_restarts" - rs0)

let test_supervisor_gives_up_typed () =
  with_daemon ~dispatchers:1 ~restart_budget:1 ~degrade_after_s:0.2
  @@ fun socket ->
  Fun.protect ~finally:Fault.deactivate @@ fun () ->
  let rq0 = stat socket "requeued" and rs0 = stat socket "dispatcher_restarts" in
  Fault.activate ~probability:1.0 ~sites:[ Fault.Serve_dispatch ] ~seed:11 ();
  (match
     Client.submit ~socket ~retry:Client.no_retry (Jobs.Lstar { states = 3 })
   with
  | Error (`Server f) ->
    Alcotest.(check string) "give-up is a typed internal_error"
      "internal_error" f.Client.fcode
  | Ok _ -> Alcotest.fail "poisoned job returned a verdict"
  | Error (`Transport m) -> Alcotest.failf "transport error: %s" m);
  Alcotest.(check bool) "budget+1 dispatcher deaths" true
    (stat socket "dispatcher_restarts" - rs0 >= 2);
  Alcotest.(check int) "one requeue before giving up" 1
    (stat socket "requeued" - rq0);
  Fault.deactivate ();
  (* two deaths in the window flipped the daemon degraded; the slot was
     re-armed, so a retrying client rides out the recovery *)
  let spec = Jobs.Lstar { states = 4 } in
  match
    Client.submit ~socket
      ~retry:{ Client.default_retry with attempts = 20; base_s = 0.1 }
      spec
  with
  | Ok o ->
    Alcotest.(check string) "post-give-up verdict correct"
      (Jobs.run spec).Jobs.verdict o.Client.verdict
  | Error _ -> Alcotest.fail "daemon did not recover after give-up"

(* ------------------------------------------------------------------ *)
(* reader fuzz corpus                                                  *)
(* ------------------------------------------------------------------ *)

let write_sub fd s off len = ignore (Unix.write_substring fd s off len : int)

let test_reader_fuzz_corpus () =
  with_daemon @@ fun socket ->
  let conn = raw_connect socket in
  Fun.protect ~finally:(fun () ->
      try Unix.close (fst conn) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let fd = fst conn in
  let expect_err what line =
    send_raw fd line;
    match recv conn with
    | P.Err _ -> ()
    | r ->
      Alcotest.failf "%s: expected a typed error, got %s" what
        (P.response_to_line r)
  in
  expect_err "truncated json" "{\"v\":\"sciduction";
  expect_err "nul byte in string" "{\"v\":\"a\000b\"}";
  expect_err "binary garbage" "\xff\xfe\x00\x01\x7f";
  expect_err "bare array" "[1,2,3]";
  expect_err "empty object" "{}";
  (* a frame split across writes is reassembled, not rejected *)
  let ping = Json.to_string (P.request_to_json P.Ping) ^ "\n" in
  let half = String.length ping / 2 in
  write_sub fd ping 0 half;
  Thread.delay 0.05;
  write_sub fd ping half (String.length ping - half);
  (match recv conn with
  | P.Pong -> ()
  | r -> Alcotest.failf "split ping: got %s" (P.response_to_line r));
  (* a peer dying mid-frame must not take the server down *)
  let fd2, _ = raw_connect socket in
  let partial = "{\"v\":\"sciduction.serve/1\",\"op\":\"sub" in
  write_sub fd2 partial 0 (String.length partial);
  Unix.close fd2;
  (* nor a peer that floods an unterminated oversized frame and leaves *)
  let fd3, _ = raw_connect socket in
  let flood = String.make 100_000 '{' in
  write_sub fd3 flood 0 (String.length flood);
  Unix.close fd3;
  Thread.delay 0.1;
  send_req fd P.Ping;
  (match recv conn with
  | P.Pong -> ()
  | r -> Alcotest.failf "post-fuzz ping: got %s" (P.response_to_line r));
  let spec = Jobs.Lstar { states = 3 } in
  match Client.submit ~socket spec with
  | Ok o ->
    Alcotest.(check string) "server still serves real work"
      (Jobs.run spec).Jobs.verdict o.Client.verdict
  | Error _ -> Alcotest.fail "submit after fuzzing failed"

(* ------------------------------------------------------------------ *)
(* warm store LRU bound                                                *)
(* ------------------------------------------------------------------ *)

let test_warm_lru_eviction () =
  with_daemon ~warm_capacity:1 @@ fun socket ->
  let ev0 = stat socket "warm_evictions" in
  let fam_a = shift_spec ~len:10 6 and fam_b = shift_spec ~len:11 6 in
  (match Client.submit ~socket fam_a with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "family A submit failed");
  Alcotest.(check int) "one resident family" 1 (stat socket "warm_families");
  (match Client.submit ~socket fam_b with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "family B submit failed");
  Alcotest.(check bool) "admitting B evicted A" true
    (stat socket "warm_evictions" > ev0);
  Alcotest.(check int) "still one resident family" 1
    (stat socket "warm_families");
  (* the evicted family restarts cold — and still answers correctly *)
  let deep_a = shift_spec ~len:10 12 in
  match Client.submit ~socket deep_a with
  | Ok o ->
    Alcotest.(check string) "evicted family recomputed correctly"
      (Jobs.run deep_a).Jobs.verdict o.Client.verdict;
    Alcotest.(check bool) "not a cache hit" false o.Client.cached
  | Error _ -> Alcotest.fail "deep submit after eviction failed"

(* ------------------------------------------------------------------ *)
(* retrying client                                                     *)
(* ------------------------------------------------------------------ *)

let test_client_backoff_schedule () =
  (* nothing listens on this socket: every attempt is a transport
     failure, and the recorded sleeps must be the published schedule *)
  let socket = fresh_socket () in
  let sleeps = ref [] in
  let retry =
    {
      Client.attempts = 4;
      base_s = 0.01;
      cap_s = 0.05;
      sleep = (fun d -> sleeps := d :: !sleeps);
    }
  in
  let r0 = Client.retries () in
  (match Client.submit ~socket ~retry (Jobs.Lstar { states = 3 }) with
  | Error (`Transport _) -> ()
  | Ok _ -> Alcotest.fail "submit to a dead socket succeeded"
  | Error (`Server _) -> Alcotest.fail "dead socket answered a typed error");
  let got = List.rev !sleeps in
  Alcotest.(check int) "one sleep per failed attempt but the last" 3
    (List.length got);
  List.iteri
    (fun k d ->
      Alcotest.(check (float 1e-12)) "deterministic jittered delay"
        (Client.backoff_delay retry k)
        d)
    got;
  Alcotest.(check int) "retries counted" 3 (Client.retries () - r0)

let test_client_reconnects_across_restart () =
  let socket = fresh_socket () in
  (* a daemon lived and died here; the client starts against nothing *)
  (match Daemon.start ~socket () with
  | Error e -> Alcotest.failf "first daemon start: %s" e
  | Ok d -> Daemon.stop d);
  let d2 = ref None in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        match Daemon.start ~socket () with
        | Ok d -> d2 := Some d
        | Error _ -> ())
      ()
  in
  let spec = Jobs.Lstar { states = 4 } in
  let r0 = Client.retries () in
  let res =
    Client.submit ~socket
      ~retry:{ Client.default_retry with attempts = 40; base_s = 0.05 }
      spec
  in
  Thread.join starter;
  Fun.protect ~finally:(fun () -> Option.iter Daemon.stop !d2) @@ fun () ->
  match res with
  | Ok o ->
    Alcotest.(check string) "verdict after riding out the restart"
      (Jobs.run spec).Jobs.verdict o.Client.verdict;
    Alcotest.(check bool) "reconnects were needed and counted" true
      (Client.retries () > r0)
  | Error _ -> Alcotest.fail "client did not ride out the restart"

(* ------------------------------------------------------------------ *)
(* socket lifecycle at bind                                            *)
(* ------------------------------------------------------------------ *)

let test_stale_socket_handling () =
  (* a socket file left by a dead listener is probed and replaced *)
  let path = fresh_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1;
  Unix.close fd;
  Alcotest.(check bool) "stale file present" true (Sys.file_exists path);
  (match Daemon.start ~socket:path () with
  | Error e -> Alcotest.failf "stale socket not replaced: %s" e
  | Ok d ->
    Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
    (match Client.ping ~socket:path () with
    | Ok () -> ()
    | Error e -> Alcotest.failf "ping after replacement: %s" e));
  (* a live daemon on the path is refused, not clobbered *)
  with_daemon (fun live ->
      (match Daemon.start ~socket:live () with
      | Ok d ->
        Daemon.stop d;
        Alcotest.fail "second daemon bound over a live one"
      | Error e ->
        Alcotest.(check bool) "refusal names the live server" true
          (contains e "live"));
      match Client.ping ~socket:live () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "live daemon harmed by the probe: %s" e);
  (* an unrelated file is never unlinked *)
  let reg = fresh_path ".txt" in
  write_file reg "precious";
  Fun.protect ~finally:(fun () -> rm_f reg) @@ fun () ->
  (match Daemon.start ~socket:reg () with
  | Ok d ->
    Daemon.stop d;
    Alcotest.fail "daemon replaced a regular file"
  | Error e ->
    Alcotest.(check bool) "refusal says not-a-socket" true
      (contains e "not a socket"));
  let ic = open_in_bin reg in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  Alcotest.(check string) "file content untouched" "precious"
    (really_input_string ic (in_channel_length ic))

(* [serve] takes no --stats (a daemon would keep every record of its
   lifetime for the exit report): the CLI refuses it as a usage error
   before any socket is bound *)
let test_serve_refuses_stats () =
  let cli =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/sciduction_cli.exe"
  in
  let socket = fresh_socket () and err = fresh_path ".err" in
  Fun.protect ~finally:(fun () ->
      rm_f socket;
      rm_f err)
  @@ fun () ->
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let pid =
    Fun.protect ~finally:(fun () ->
        Unix.close null;
        Unix.close errfd)
    @@ fun () ->
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--quiet"; "--stats" |]
      null null errfd
  in
  let status =
    try
      poll (fun () ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> Error "serve --stats is still running"
          | _, st -> Ok st)
    with e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e
  in
  (match status with
  | Unix.WEXITED code ->
    Alcotest.(check int) "cmdliner's usage-error exit" 124 code
  | _ -> Alcotest.fail "serve --stats was killed by a signal");
  let ic = open_in_bin err in
  let text =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  Alcotest.(check bool) "the diagnostic names --stats" true
    (contains text "--stats");
  Alcotest.(check bool) "no daemon was started" false (Sys.file_exists socket)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "specs round-trip JSON" `Quick
            test_spec_roundtrip;
          Alcotest.test_case "requests round-trip the wire" `Quick
            test_request_roundtrip;
          Alcotest.test_case "timing <TA> verdicts pinned" `Quick
            test_timing_ta_verdicts;
          Alcotest.test_case "responses round-trip the wire" `Quick
            test_response_roundtrip;
          Alcotest.test_case "parser is total and typed" `Quick
            test_parse_request_total;
        ] );
      ( "serving",
        [
          Alcotest.test_case "served verdict == direct run" `Quick
            test_served_verdict_matches_direct;
          Alcotest.test_case "unsafe verdict == direct run" `Quick
            test_unsafe_verdict_matches_direct;
          Alcotest.test_case "timing with no feasible path" `Quick
            test_served_no_feasible_path;
          Alcotest.test_case "warm sessions resume" `Quick
            test_warm_sessions_resume;
          Alcotest.test_case "concurrent clients isolated" `Quick
            test_concurrent_clients_isolated;
        ] );
      ( "errors",
        [
          Alcotest.test_case "malformed lines answer typed" `Quick
            test_malformed_lines_typed;
          Alcotest.test_case "cancel of unknown job" `Quick
            test_cancel_unknown_job;
          Alcotest.test_case "duplicate id and explicit cancel" `Quick
            test_duplicate_id_and_explicit_cancel;
          Alcotest.test_case "disconnect cancels in-flight work" `Quick
            test_disconnect_cancels_inflight;
        ] );
      ( "faults",
        [
          Alcotest.test_case "typed error, others complete" `Quick
            test_fault_is_typed_and_isolated;
        ] );
      ( "journal",
        [
          Alcotest.test_case "records replay losslessly" `Quick
            test_journal_replay_roundtrip;
          Alcotest.test_case "corrupt and truncated tails dropped" `Quick
            test_journal_tail_tolerance;
          Alcotest.test_case "crash recovery loses no acked work" `Quick
            test_journal_crash_recovery;
        ] );
      ( "admission",
        [
          Alcotest.test_case "overload sheds; client retries land" `Quick
            test_overload_shed_and_client_retry;
          Alcotest.test_case "degraded mode enter/serve-warm/exit" `Quick
            test_degraded_mode_cycle;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "dispatcher death requeues the job" `Quick
            test_supervisor_requeues_and_job_survives;
          Alcotest.test_case "poisoned job gives up typed" `Quick
            test_supervisor_gives_up_typed;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "malformed wire corpus" `Quick
            test_reader_fuzz_corpus;
        ] );
      ( "warm",
        [
          Alcotest.test_case "LRU eviction past capacity" `Quick
            test_warm_lru_eviction;
        ] );
      ( "client",
        [
          Alcotest.test_case "backoff schedule deterministic" `Quick
            test_client_backoff_schedule;
          Alcotest.test_case "reconnects across a restart" `Quick
            test_client_reconnects_across_restart;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "stale socket replaced, live refused" `Quick
            test_stale_socket_handling;
          Alcotest.test_case "serve --stats is a usage error" `Quick
            test_serve_refuses_stats;
        ] );
      ( "proof",
        [
          Alcotest.test_case "served certificates verify" `Quick
            test_served_proofs_check;
        ] );
    ]
