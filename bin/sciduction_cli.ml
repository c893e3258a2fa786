(* Command-line interface over the sciduction applications.

     sciduction_cli deobfuscate --program p2 --width 8
     sciduction_cli timing --bits 6 --tau 550
     sciduction_cli transmission --dwell 5
     sciduction_cli cegar --junk 10
     sciduction_cli bmc --junk 10 --max-depth 12
     sciduction_cli invgen --circuit mod5
     sciduction_cli lstar --states 5
     sciduction_cli export-chrome trace.jsonl -o trace.json

   Every application subcommand accepts --trace FILE (JSON-lines
   telemetry), --stats (the run's trace report on stderr at exit; not
   on serve), --quiet (suppress diagnostics, keep the final verdict)
   and --stats-socket PATH (serve live metrics, rates and
   heartbeat/stall status over a Unix-domain socket while the run is
   in flight; scrape it with `sciduction_cli stats --socket PATH` from
   another shell).

   Loop subcommands additionally accept resource governance flags:
   --timeout SECONDS and --max-conflicts N budget the run (an exhausted
   run reports its partial result and exits 0), and --fault SEED[:PROB]
   arms deterministic fault injection (also via SCIDUCTION_FAULT_SEED;
   the flag wins). *)

open Cmdliner

(* ---- telemetry plumbing shared by all subcommands ---- *)

let obs_term_with stats =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a JSON-lines telemetry trace (spans, loop events, \
                final metrics snapshot) to $(docv).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress diagnostics; keep final verdicts.")
  in
  let stats_socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-socket" ] ~docv:"PATH"
          ~env:(Cmd.Env.info "SCIDUCTION_STATS_SOCKET")
          ~doc:"Serve live telemetry (metrics snapshots, per-interval \
                rates, loop heartbeats, stall status) on a Unix-domain \
                socket at $(docv) for the duration of the run; scrape it \
                with $(b,sciduction_cli stats). Implies telemetry is on.")
  in
  let stall_after =
    Arg.(
      value & opt float 5.0
      & info [ "stall-after" ] ~docv:"SECONDS"
          ~doc:"With --stats-socket: flag a loop as stalled once no \
                iteration has advanced for $(docv) seconds (a diagnostic \
                stall_detected event and endpoint status; the run is never \
                killed).")
  in
  let proof =
    Arg.(
      value
      & opt (some string) None
      & info [ "proof" ] ~docv:"PREFIX"
          ~doc:"Log DRAT proofs and unsat-core certificates: spool files \
                $(docv).sN.cnf / $(docv).sN.drat plus a $(docv).idx index, \
                one certificate per Unsat verdict. Audit them afterwards \
                with $(b,sciduction_cli check-proof --proof) $(docv).")
  in
  Term.(
    const (fun t s q sock stall proof -> (t, s, q, sock, stall, proof))
    $ trace $ stats $ quiet $ stats_socket $ stall_after $ proof)

let obs_term =
  obs_term_with
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"On exit, print the run's trace report on stderr: per-loop \
                convergence (iterations, sat/unsat, I/D% split, trend, \
                outcome), the flame profile and the metrics that moved — \
                the body $(b,trace_report) prints for a --trace of the \
                same run.")

(* serve takes no --stats: the report is read from records kept in
   memory, and a daemon would keep every record of its lifetime. Its
   live view is --stats-socket's /metrics; after a run, trace_report on
   its --trace. *)
let serve_obs_term = obs_term_with (Term.const false)

(* ---- resource governance shared by the loop subcommands ---- *)

let positive_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be positive" what))
    | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let fault_conv =
  let parse s =
    match Fault.parse_spec s with Ok v -> Ok v | Error m -> Error (`Msg m)
  in
  let print fmt (seed, prob) =
    match prob with
    | None -> Format.fprintf fmt "%d" seed
    | Some p -> Format.fprintf fmt "%d:%g" seed p
  in
  Arg.conv (parse, print)

let fault_arg =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "fault" ] ~docv:"SEED[:PROB]"
        ~doc:"Arm deterministic fault injection: solver calls spuriously \
              answer Unknown, pool submissions die, served jobs abort, \
              server readers and dispatchers crash and journal appends \
              fail, with per-site probability $(i,PROB) (default 0.05). \
              Overrides $(b,SCIDUCTION_FAULT_SEED).")

let fault_sites_conv =
  let parse s =
    match Fault.parse_sites s with Ok l -> Ok l | Error m -> Error (`Msg m)
  in
  let print fmt l =
    Format.pp_print_string fmt
      (String.concat "," (List.map Fault.site_to_string l))
  in
  Arg.conv (parse, print)

let fault_sites_arg =
  Arg.(
    value
    & opt (some fault_sites_conv) None
    & info [ "fault-sites" ] ~docv:"SITES"
        ~doc:"Restrict $(b,--fault) to a comma-separated subset of sites \
              (solver_call, pool_submit, domain_spawn, serve_job, \
              serve_reader, serve_dispatch, journal_write); the others \
              never fire and consume no draws. Default: every site. \
              Overrides $(b,SCIDUCTION_FAULT_SITES).")

let arm_fault ?sites = function
  | Some (seed, prob) -> Fault.activate ?probability:prob ?sites ~seed ()
  | None -> ignore (Fault.activate_from_env () : bool)

let budget_term =
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget for the whole run. On expiry the loop \
                stops at the next solver poll and reports its partial \
                result.")
  in
  let max_conflicts =
    Arg.(
      value
      & opt (some (positive_int_conv "--max-conflicts")) None
      & info [ "max-conflicts" ] ~docv:"N"
          ~doc:"Pooled SAT-conflict budget shared by every solver call of \
                the run (deterministic: the same run exhausts at the same \
                point every time).")
  in
  Term.(
    const (fun timeout conflicts fault sites ->
        arm_fault ?sites fault;
        Budget.limited ?conflicts ?seconds:timeout ())
    $ timeout $ max_conflicts $ fault_arg $ fault_sites_arg)

let with_obs (trace, stats, quiet, stats_socket, stall_after, proof) f =
  Obs.set_quiet quiet;
  if trace <> None || stats || stats_socket <> None then Obs.enable ();
  Option.iter (fun path -> Obs.add_sink (Obs.jsonl_sink path)) trace;
  let summary =
    if stats then begin
      let sink, records = Obs.memory_sink () in
      Obs.add_sink sink;
      Some records
    end
    else None
  in
  Option.iter (fun prefix -> Smt.Proof.enable ~prefix) proof;
  (* the live plane exists only when asked for: without --stats-socket
     no ticker domain starts, no progress records appear, and the run
     is byte-for-byte what it was before the plane existed *)
  let live =
    match stats_socket with
    | None -> Ok None
    | Some path -> (
      Obs.set_progress_interval 0.25;
      let ticker =
        Obs.Live.start ~interval_ms:250
          ~on_tick:(fun () -> Obs.check_stalls ~window:stall_after)
          ()
      in
      match Obs.Statsd.start ~path ~ticker () with
      | Ok server -> Ok (Some (ticker, server))
      | Error e ->
        Obs.Live.stop ticker;
        Error (Obs.Statsd.socket_error_message e))
  in
  match live with
  | Error msg ->
    Smt.Proof.disable ();
    Obs.shutdown ();
    Format.eprintf "sciduction_cli: %s@." msg;
    3
  | Ok live ->
  let code =
    Fun.protect
      ~finally:(fun () ->
        (* server first (it reads the ticker), then the ticker, then the
           sinks; the socket file is gone before the process exits *)
        Option.iter
          (fun (ticker, server) ->
            Obs.Statsd.stop server;
            Obs.Live.stop ticker)
          live;
        Smt.Proof.disable ();
        Obs.shutdown ())
      (fun () ->
        (* typed failures become a one-line diagnostic and a distinct
           exit code, never a backtrace *)
        try f () with
        | Failure msg ->
          Format.eprintf "sciduction_cli: %s@." msg;
          3
        | Invalid_argument msg ->
          Format.eprintf "sciduction_cli: %s@." msg;
          3
        | Sys_error msg ->
          Format.eprintf "sciduction_cli: %s@." msg;
          3)
  in
  (* stderr, so --stats composes with piping the verdict from stdout *)
  Option.iter
    (fun records -> Format.eprintf "%a%!" Obs.pp_summary (records ()))
    summary;
  code

(* ---- the six loop subcommands ----

   Each one builds a Server.Jobs.spec from its flags and either runs it
   in-process (through the exact runner the daemon's dispatchers use,
   so verdicts cannot drift between the two front-ends) or, with
   --server PATH, submits it to a running daemon and relays the verdict
   and exit code unchanged. *)

let server_retries_arg =
  Arg.(
    value
    & opt (some (positive_int_conv "--server-retries")) None
    & info [ "server-retries" ] ~docv:"N"
        ~doc:"With $(b,--server): total submit attempts. Transport \
              failures (daemon restarting) and transient typed errors \
              (overloaded, internal_error) are retried under jittered \
              exponential backoff, honoring the server's retry_after_s \
              hint. Default 5; 1 disables retrying.")

let server_term =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "server" ] ~docv:"PATH"
          ~env:(Cmd.Env.info "SCIDUCTION_SERVER")
          ~doc:"Submit the job to the verification server listening on the \
                Unix socket $(docv) (see $(b,sciduction_cli serve)) instead \
                of solving in-process. The verdict text and exit code come \
                back unchanged; --timeout and --max-conflicts become the \
                job's server-side budget.")
  in
  Term.(
    const (fun socket retries -> Option.map (fun s -> (s, retries)) socket)
    $ socket $ server_retries_arg)

let print_verdict verdict =
  List.iter print_endline (String.split_on_char '\n' verdict)

let submit_and_print socket ?attempts ?id ?priority ?timeout ?max_conflicts
    spec =
  let retry =
    match attempts with
    | None -> Server.Client.default_retry
    | Some attempts -> { Server.Client.default_retry with attempts }
  in
  match
    Server.Client.submit ~socket ~retry ?id ?priority ?timeout ?max_conflicts
      spec
  with
  | Ok o ->
    print_verdict o.Server.Client.verdict;
    o.Server.Client.code
  | Error (`Server f) ->
    Format.eprintf "sciduction_cli: server error %s: %s@." f.Server.Client.fcode
      f.Server.Client.fmessage;
    3
  | Error (`Transport msg) ->
    Format.eprintf "sciduction_cli: %s@." msg;
    3

let run_spec server (budget : Budget.t) spec =
  match server with
  | Some (socket, attempts) ->
    submit_and_print socket ?attempts ?timeout:budget.Budget.seconds
      ?max_conflicts:budget.Budget.conflicts spec
  | None ->
    let r = Server.Jobs.run ~budget spec in
    print_verdict r.Server.Jobs.verdict;
    r.Server.Jobs.code

(* ---- deobfuscate ---- *)

let deobfuscate_cmd =
  let program =
    Arg.(
      value
      & opt (enum [ ("p1", `P1); ("p2", `P2) ]) `P2
      & info [ "program" ] ~docv:"NAME" ~doc:"Benchmark to deobfuscate: p1 or p2.")
  in
  let width =
    Arg.(value & opt int 8 & info [ "width" ] ~docv:"BITS" ~doc:"Word width.")
  in
  Cmd.v
    (Cmd.info "deobfuscate" ~doc:"Re-synthesize an obfuscated program (Fig. 8)")
    Term.(
      const (fun obs budget server program width ->
          with_obs obs (fun () ->
              run_spec server budget
                (Server.Jobs.Deobfuscate { program; width })))
      $ obs_term $ budget_term $ server_term $ program $ width)

(* ---- timing ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let timing_cmd =
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Analyze this program instead of the built-in modexp.")
  in
  let bits =
    Arg.(
      value & opt int 6
      & info [ "bits" ] ~docv:"N"
          ~doc:"Exponent bits for modexp / loop-unrolling bound for --file.")
  in
  let tau =
    Arg.(
      value
      & opt (some int) None
      & info [ "tau" ] ~docv:"CYCLES" ~doc:"Answer problem <TA> for this bound.")
  in
  Cmd.v
    (Cmd.info "timing" ~doc:"GameTime analysis of a program (Sec. 3)")
    Term.(
      const (fun obs budget server file bits tau ->
          with_obs obs (fun () ->
              let source = Option.map read_file file in
              run_spec server budget
                (Server.Jobs.Timing { source; bits; tau })))
      $ obs_term $ budget_term $ server_term $ file $ bits $ tau)

(* ---- transmission ---- *)

let transmission_run dwell grid =
  let r =
    if dwell > 0.0 then Switchsynth.Transmission_synth.synthesize ~dwell ~grid ()
    else Switchsynth.Transmission_synth.synthesize ~grid ()
  in
  Format.printf "converged=%b after %d iterations (%d simulator queries)@."
    r.Switchsynth.Fixpoint.converged r.Switchsynth.Fixpoint.iterations
    r.Switchsynth.Fixpoint.labels_queried;
  List.iter
    (fun (label, b) ->
      Obs.info "  %-6s %a@." label Switchsynth.Box.pp1 b)
    r.Switchsynth.Fixpoint.guards;
  0

let transmission_cmd =
  let dwell =
    Arg.(
      value & opt float 0.0
      & info [ "dwell" ] ~docv:"SECONDS" ~doc:"Minimum dwell per gear (0 = Eq. 3).")
  in
  let grid =
    Arg.(value & opt float 0.01 & info [ "grid" ] ~docv:"STEP" ~doc:"Guard grid.")
  in
  Cmd.v
    (Cmd.info "transmission"
       ~doc:"Synthesize transmission switching guards (Sec. 5)")
    Term.(
      const (fun obs dwell grid ->
          with_obs obs (fun () -> transmission_run dwell grid))
      $ obs_term $ dwell $ grid)

(* ---- cegar ---- *)

let cegar_cmd =
  let junk =
    Arg.(value & opt int 8 & info [ "junk" ] ~doc:"Irrelevant latches.")
  in
  let bits = Arg.(value & opt int 3 & info [ "bits" ] ~doc:"Counter width.") in
  let modulus = Arg.(value & opt int 6 & info [ "modulus" ] ~doc:"Wrap value.") in
  let bad_value =
    Arg.(value & opt int 7 & info [ "bad" ] ~doc:"Bad counter value.")
  in
  Cmd.v
    (Cmd.info "cegar" ~doc:"CEGAR on a counter with irrelevant latches")
    Term.(
      const (fun obs budget server junk bits modulus bad_value ->
          with_obs obs (fun () ->
              run_spec server budget
                (Server.Jobs.Cegar { junk; bits; modulus; bad_value })))
      $ obs_term $ budget_term $ server_term $ junk $ bits $ modulus
      $ bad_value)

(* ---- bmc ---- *)

let bmc_cmd =
  let junk =
    Arg.(value & opt int 8 & info [ "junk" ] ~doc:"Irrelevant latches.")
  in
  let bits = Arg.(value & opt int 3 & info [ "bits" ] ~doc:"Counter width.") in
  let modulus = Arg.(value & opt int 6 & info [ "modulus" ] ~doc:"Wrap value.") in
  let bad_value =
    Arg.(value & opt int 7 & info [ "bad" ] ~doc:"Bad counter value.")
  in
  let max_depth =
    Arg.(
      value & opt int 16
      & info [ "max-depth" ] ~docv:"N" ~doc:"Largest unrolling depth to try.")
  in
  let shift =
    Arg.(
      value
      & opt (some (positive_int_conv "--shift")) None
      & info [ "shift" ] ~docv:"LEN"
          ~doc:"Check a $(docv)-stage shift register instead of the counter \
                (safe: the bad state is unreachable at every depth).")
  in
  Cmd.v
    (Cmd.info "bmc" ~doc:"Bounded model checking sweep over growing depths")
    Term.(
      const (fun obs budget server shift junk bits modulus bad_value max_depth ->
          with_obs obs (fun () ->
              run_spec server budget
                (Server.Jobs.Bmc
                   {
                     system = { shift; junk; bits; modulus; bad_value };
                     max_depth;
                   })))
      $ obs_term $ budget_term $ server_term $ shift $ junk $ bits $ modulus
      $ bad_value $ max_depth)

(* ---- invgen ---- *)

let invgen_cmd =
  let circuit =
    Arg.(
      value
      & opt
          (enum
             [ ("ring", `Ring); ("mod5", `Mod5); ("twin", `Twin);
               ("stuck", `Stuck) ])
          `Mod5
      & info [ "circuit" ] ~docv:"NAME"
          ~doc:"Example circuit: ring, mod5, twin or stuck.")
  in
  let n =
    Arg.(
      value & opt int 4
      & info [ "n" ] ~docv:"N" ~doc:"Size parameter for ring/twin.")
  in
  Cmd.v
    (Cmd.info "invgen"
       ~doc:"Invariant generation by simulation + mutual induction (Sec. 2.4)")
    Term.(
      const (fun obs budget server circuit n ->
          with_obs obs (fun () ->
              run_spec server budget (Server.Jobs.Invgen { circuit; n })))
      $ obs_term $ budget_term $ server_term $ circuit $ n)

(* ---- lstar ---- *)

let lstar_cmd =
  let states =
    Arg.(
      value
      & opt (positive_int_conv "--states") 5
      & info [ "states" ] ~docv:"N"
          ~doc:"States of the target DFA (1s-count mod $(docv)).")
  in
  Cmd.v
    (Cmd.info "lstar" ~doc:"Learn a DFA with Angluin's L* algorithm")
    Term.(
      const (fun obs budget server states ->
          with_obs obs (fun () ->
              run_spec server budget (Server.Jobs.Lstar { states })))
      $ obs_term $ budget_term $ server_term $ states)

(* ---- export-chrome ---- *)

let export_chrome_run input output =
  let output =
    match output with
    | Some o -> o
    | None -> Filename.remove_extension input ^ ".chrome.json"
  in
  match Obs.export_chrome ~input ~output with
  | Ok () ->
    Format.printf "wrote %s@." output;
    0
  | Error msg ->
    Format.eprintf "export failed: %s@." msg;
    1

let export_chrome_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"JSON-lines trace produced by --trace.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output path (default: TRACE with a .chrome.json extension).")
  in
  Cmd.v
    (Cmd.info "export-chrome"
       ~doc:"Convert a JSONL trace to Chrome trace_event format")
    Term.(const export_chrome_run $ input $ output)

(* ---- run ---- *)

let parse_binding s =
  match String.index_opt s '=' with
  | Some i ->
    let name = String.sub s 0 i in
    let v = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt v with
    | Some v -> Ok (name, v)
    | None -> Error (`Msg (Printf.sprintf "bad value in %S" s)))
  | None -> Error (`Msg (Printf.sprintf "expected NAME=VALUE, got %S" s))

let binding_conv =
  Arg.conv (parse_binding, fun fmt (n, v) -> Format.fprintf fmt "%s=%d" n v)

let run_run file bindings machine =
  match Prog.Syntax.parse_file file with
  | exception Prog.Syntax.Parse_error { line; message } ->
    Format.eprintf "%s:%d: %s@." file line message;
    2
  | p ->
    Obs.info "%a@.@." Prog.Syntax.print p;
    let outputs = Prog.Interp.run p bindings in
    List.iter (fun (x, v) -> Format.printf "%s = %d@." x v) outputs;
    if machine then begin
      let pf = Microarch.Platform.create p in
      let r = Microarch.Platform.run pf bindings in
      Format.printf
        "machine: %d cycles, %d instructions, icache %d/%d, dcache %d/%d@."
        r.Microarch.Machine.stats.Microarch.Machine.cycles
        r.Microarch.Machine.stats.Microarch.Machine.instructions
        r.Microarch.Machine.stats.Microarch.Machine.icache_hits
        r.Microarch.Machine.stats.Microarch.Machine.icache_misses
        r.Microarch.Machine.stats.Microarch.Machine.dcache_hits
        r.Microarch.Machine.stats.Microarch.Machine.dcache_misses;
      if r.Microarch.Machine.outputs <> outputs then begin
        Format.printf "!! machine disagrees with the interpreter@.";
        exit 1
      end
    end;
    0

let run_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Program source (.imp).")
  in
  let bindings =
    Arg.(
      value & opt_all binding_conv []
      & info [ "in" ] ~docv:"NAME=VALUE" ~doc:"Input binding (repeatable).")
  in
  let machine =
    Arg.(
      value & flag
      & info [ "machine" ]
          ~doc:"Also execute on the cycle-accurate platform and report timing.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Parse and execute a program file")
    Term.(
      const (fun obs file bindings machine ->
          with_obs obs (fun () -> run_run file bindings machine))
      $ obs_term $ file $ bindings $ machine)

(* ---- stats (scrape a live run's endpoint) ---- *)

let stats_run socket metrics =
  match socket with
  | None ->
    Format.eprintf
      "sciduction_cli: no socket (pass --socket PATH, or set \
       SCIDUCTION_STATS_SOCKET)@.";
    3
  | Some path -> (
    let target = if metrics then "/metrics" else "/json" in
    match Obs.Statsd.fetch ~path ~target () with
    | Ok body ->
      print_string body;
      0
    | Error msg ->
      Format.eprintf "sciduction_cli: %s@." msg;
      3)

let stats_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~env:(Cmd.Env.info "SCIDUCTION_STATS_SOCKET")
          ~doc:"Stats socket of the run to scrape (the path the run was \
                given via --stats-socket).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the Prometheus text exposition ($(i,/metrics)) \
                instead of the JSON document ($(i,/json)).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Scrape the live stats endpoint of a running sciduction_cli")
    Term.(const stats_run $ socket $ metrics)

(* ---- check-proof ---- *)

let m_clauses_checked = Obs.Metrics.counter "cert.clauses_checked"
let m_check_ms = Obs.Metrics.histogram "cert.check_ms"

let read_prefix path n =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  if len < n then begin
    close_in_noerr ic;
    failwith
      (Printf.sprintf "%s: certificate wants %d bytes but the spool has %d"
         path n len)
  end;
  let s = really_input_string ic n in
  close_in ic;
  s

(* Rebuild one certificate's self-contained (CNF, DRAT) pair from its
   index entry: the CNF is the spool prefix plus one unit clause per
   core literal (the failed assumptions, asserted); the DRAT is the
   spool prefix (whose last clause is the negated core, appended at
   certify time) terminated by the empty clause the spool deliberately
   omits. *)
let reconstruct_pair entry =
  let str k = Option.bind (Obs.Json.member k entry) Obs.Json.to_str in
  let int_f k = Option.bind (Obs.Json.member k entry) Obs.Json.to_int in
  let ints k =
    match Obs.Json.member k entry with
    | Some (Obs.Json.List l) -> List.filter_map Obs.Json.to_int l
    | _ -> []
  in
  let strs k =
    match Obs.Json.member k entry with
    | Some (Obs.Json.List l) -> List.filter_map Obs.Json.to_str l
    | _ -> []
  in
  match (str "cnf", int_f "cnf_bytes", str "drat", int_f "drat_bytes") with
  | Some cnf, Some cnf_bytes, Some drat, Some drat_bytes ->
    let core = ints "core" in
    let b = Buffer.create (cnf_bytes + (8 * List.length core) + 64) in
    Buffer.add_string b
      (Printf.sprintf "p cnf %d %d\n"
         (Option.value ~default:0 (int_f "maxvar"))
         (Option.value ~default:0 (int_f "cnf_clauses") + List.length core));
    Buffer.add_string b (read_prefix cnf cnf_bytes);
    List.iter (fun l -> Buffer.add_string b (Printf.sprintf "%d 0\n" l)) core;
    let cnf_text = Buffer.contents b in
    let drat_text = read_prefix drat drat_bytes ^ "0\n" in
    Ok
      ( Option.value ~default:(-1) (int_f "cert"),
        Option.value ~default:"" (str "loop"),
        strs "names",
        cnf_text,
        drat_text )
  | _ -> Error "index entry is missing a cnf/drat field"

let check_proof_run prefix dump =
  match Smt.Proof.read_index ~prefix with
  | Error msg ->
    Format.eprintf "sciduction_cli: %s@." msg;
    2
  | Ok [] ->
    Format.printf "no certificates in %s.idx@." prefix;
    0
  | Ok entries ->
    Option.iter
      (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
      dump;
    let failed = ref 0 in
    List.iter
      (fun entry ->
        match reconstruct_pair entry with
        | Error msg ->
          incr failed;
          Format.printf "BAD INDEX ENTRY: %s@." msg
        | exception Failure msg ->
          incr failed;
          Format.printf "BAD CERTIFICATE: %s@." msg
        | Ok (id, loop, names, cnf_text, drat_text) -> (
          Option.iter
            (fun dir ->
              let write path text =
                let oc = open_out (Filename.concat dir path) in
                output_string oc text;
                close_out oc
              in
              write (Printf.sprintf "cert%d.cnf" id) cnf_text;
              write (Printf.sprintf "cert%d.drat" id) drat_text)
            dump;
          let t0 = Unix.gettimeofday () in
          let verdict =
            match Cert.Drat.parse_dimacs cnf_text with
            | Error e -> Error e
            | Ok f -> (
              match Cert.Drat.parse_proof drat_text with
              | Error e -> Error e
              | Ok p -> Cert.Drat.check f p)
          in
          let ms =
            int_of_float (1000.0 *. (Unix.gettimeofday () -. t0))
          in
          Obs.Metrics.observe m_check_ms ms;
          let where =
            if loop = "" then Printf.sprintf "cert %d" id
            else Printf.sprintf "cert %d (%s)" id loop
          in
          match verdict with
          | Ok s ->
            Obs.Metrics.add m_clauses_checked
              (s.Cert.Drat.cnf_clauses + s.Cert.Drat.additions);
            Format.printf
              "%s: VERIFIED — %d cnf clauses, %d proof additions, core [%s]@."
              where s.Cert.Drat.cnf_clauses s.Cert.Drat.additions
              (String.concat ", " names)
          | Error e ->
            incr failed;
            Format.printf "%s: REJECTED — %s@." where e))
      entries;
    Format.printf "%d certificate(s): %d verified, %d rejected@."
      (List.length entries)
      (List.length entries - !failed)
      !failed;
    if !failed = 0 then 0 else 1

let check_proof_cmd =
  let prefix =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PREFIX"
          ~doc:"Prefix the run was given via --proof: reads $(docv).idx and \
                the spool files it points into.")
  in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"DIR"
          ~doc:"Also write each reconstructed certificate as a standalone \
                certN.cnf / certN.drat pair under $(docv), checkable by any \
                external DRAT checker (or bin/drat_check.exe).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the checking metrics (clauses RUP-checked, per-cert \
                milliseconds) on exit.")
  in
  Cmd.v
    (Cmd.info "check-proof"
       ~doc:"Re-check every certificate of a --proof run with the \
             independent RUP checker")
    Term.(
      const (fun prefix dump stats ->
          let code = check_proof_run prefix dump in
          if stats then
            Format.eprintf "@.metrics:@.%a%!" Obs.Metrics.pp_snapshot
              (Obs.Metrics.snapshot ());
          code)
      $ prefix $ dump $ stats)

(* ---- explain ---- *)

let explain_run input =
  match Obs.Analyze.load input with
  | Error msg ->
    Format.eprintf "explain failed: %s: %s@." input msg;
    2
  | Ok records ->
    Format.printf "%a" Obs.Analyze.pp_audit (Obs.Analyze.analyze records);
    0

let explain_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"JSON-lines trace produced by --trace.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Audit a traced run: per loop, the verdict, the certificates \
             behind its Unsat answers, and the named constraints their \
             cores blame")
    Term.(const explain_run $ input)

(* ---- serve / submit / cancel / shutdown ---- *)

let serve_socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on the Unix-domain socket $(docv). A stale socket \
              file is replaced; a clean shutdown (and SIGTERM) removes \
              it.")

let client_socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "server" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "SCIDUCTION_SERVER")
        ~doc:"Socket of the running verification server.")

let serve_cmd =
  let cache_size =
    Arg.(
      value
      & opt (positive_int_conv "--cache-size") 256
      & info [ "cache-size" ] ~docv:"N"
          ~doc:"Capacity of the content-addressed result cache (LRU \
                entries).")
  in
  let aging =
    Arg.(
      value & opt float 5.0
      & info [ "aging" ] ~docv:"SECONDS"
          ~doc:"Scheduler aging constant: a queued job gains one priority \
                level per $(docv) seconds waited, so low-priority work can \
                never starve.")
  in
  let dispatchers =
    Arg.(
      value
      & opt (some (positive_int_conv "--dispatchers")) None
      & info [ "dispatchers" ] ~docv:"N"
          ~doc:"Jobs executed concurrently. Default: the --jobs pool \
                width, else 1.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Units of the domain pool the dispatchers run jobs on: each \
                dispatcher runs a whole job as one pool task, and the loop \
                inside the job stays sequential. Default: \
                $(b,SCIDUCTION_JOBS) or 1; 1 runs jobs on the dispatcher \
                threads.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:"Write-ahead journal: every accepted submission is fsync'd \
                to $(docv) before its ack, and on restart the journal is \
                replayed — cached verdicts are rebuilt and acked-but- \
                unfinished jobs rerun — so a crash loses no accepted \
                work. A sibling $(docv).lock serializes daemons.")
  in
  let queue_limit =
    Arg.(
      value
      & opt (positive_int_conv "--queue-limit") 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:"Admission high watermark: submissions past $(docv) queued \
                jobs are shed with a typed $(b,overloaded) error carrying \
                a retry_after_s hint; sustained shedding degrades the \
                server to cache/warm hits only until the queue drains.")
  in
  let restart_budget =
    Arg.(
      value
      & opt (positive_int_conv "--restart-budget") 2
      & info [ "restart-budget" ] ~docv:"N"
          ~doc:"Times one job may kill its dispatcher before the server \
                stops requeueing it and answers that client a typed \
                $(b,internal_error).")
  in
  let warm_max =
    Arg.(
      value
      & opt (some (positive_int_conv "--warm-max")) None
      & info [ "warm-max" ] ~docv:"N"
          ~doc:"Resident warm-session families (LRU; busy entries are \
                never evicted). Default 8.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent verification server on a Unix socket")
    Term.(
      const (fun obs fault sites socket cache_capacity aging_s jobs
                dispatchers journal queue_limit restart_budget warm_capacity ->
          arm_fault ?sites fault;
          with_obs obs (fun () ->
              (* an invalid --jobs or SCIDUCTION_JOBS is a typed failure:
                 with_obs turns it into a diagnostic and exit 3 *)
              let jobs =
                match jobs with
                | Some j when j < 1 ->
                  failwith
                    (Printf.sprintf "--jobs: jobs must be >= 1 (got %d)" j)
                | Some j -> j
                | None -> Par.env_jobs_exn ~default:1 ()
              in
              let pool =
                if jobs > 1 then Some (Par.Pool.create ~jobs ()) else None
              in
              Fun.protect
                ~finally:(fun () -> Option.iter Par.Pool.shutdown pool)
              @@ fun () ->
              match
                Server.Daemon.start ?pool ?dispatchers ~cache_capacity
                  ~aging_s ?journal ~queue_limit ~restart_budget
                  ?warm_capacity ~socket ()
              with
              | Error msg ->
                Format.eprintf "sciduction_cli: %s@." msg;
                3
              | Ok d ->
                (* first signal begins a graceful shutdown; queued jobs
                   answer shutting_down, in-flight ones cancel at their
                   next budget poll *)
                let stop_on _ = Server.Daemon.request_shutdown d in
                let prev_int =
                  Sys.signal Sys.sigint (Sys.Signal_handle stop_on)
                in
                let prev_term =
                  Sys.signal Sys.sigterm (Sys.Signal_handle stop_on)
                in
                Obs.info "serving on %s@." socket;
                Server.Daemon.wait d;
                Server.Daemon.stop d;
                Sys.set_signal Sys.sigint prev_int;
                Sys.set_signal Sys.sigterm prev_term;
                0))
      $ serve_obs_term $ fault_arg $ fault_sites_arg $ serve_socket_arg
      $ cache_size $ aging $ jobs $ dispatchers $ journal $ queue_limit
      $ restart_budget $ warm_max)

let submit_cmd =
  let job =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOB"
          ~doc:"The job: either a bare kind ($(b,bmc), $(b,cegar), \
                $(b,deobfuscate), $(b,invgen), $(b,lstar), $(b,timing)), \
                meaning that loop with its default parameters, or a JSON \
                object like \
                $(b,{\"kind\":\"bmc\",\"shift\":24,\"max_depth\":30}) \
                whose fields mirror the subcommand's flags.")
  in
  let id =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"NAME"
          ~doc:"Name the job (for $(b,cancel)); must be unique among live \
                jobs. Default: a fresh generated name.")
  in
  let priority =
    Arg.(
      value & opt int 0
      & info [ "priority" ] ~docv:"N"
          ~doc:"Scheduling priority; lower runs first (aging prevents \
                starvation).")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Server-side wall-clock budget for this job.")
  in
  let max_conflicts =
    Arg.(
      value
      & opt (some (positive_int_conv "--max-conflicts")) None
      & info [ "max-conflicts" ] ~docv:"N"
          ~doc:"Server-side SAT-conflict budget for this job.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit one job to a running server and print its verdict")
    Term.(
      const (fun server retries job id priority timeout max_conflicts ->
          let parsed =
            match Obs.Json.parse job with
            | Ok j -> Server.Jobs.of_json j
            | Error _ ->
              (* a bare kind is shorthand for {"kind": ...} *)
              Server.Jobs.of_json (Obs.Json.Obj [ ("kind", Obs.Json.String job) ])
          in
          match parsed with
          | Error msg ->
            Format.eprintf "sciduction_cli: bad job: %s@." msg;
            3
          | Ok spec ->
            submit_and_print server ?attempts:retries ?id ~priority ?timeout
              ?max_conflicts spec)
      $ client_socket_arg $ server_retries_arg $ job $ id $ priority
      $ timeout $ max_conflicts)

let cancel_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"The job name given at submission.")
  in
  Cmd.v
    (Cmd.info "cancel" ~doc:"Cancel a queued or running job on a server")
    Term.(
      const (fun server id ->
          match Server.Client.cancel ~socket:server ~id with
          | Ok () -> 0
          | Error msg ->
            Format.eprintf "sciduction_cli: %s@." msg;
            3)
      $ client_socket_arg $ id)

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask a running server to shut down cleanly")
    Term.(
      const (fun server ->
          match Server.Client.shutdown ~socket:server () with
          | Ok () -> 0
          | Error msg ->
            Format.eprintf "sciduction_cli: %s@." msg;
            3)
      $ client_socket_arg)

let () =
  let doc = "sciduction: induction + deduction + structure hypotheses" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "sciduction_cli" ~doc)
          [
            deobfuscate_cmd; timing_cmd; transmission_cmd; cegar_cmd;
            bmc_cmd; invgen_cmd; lstar_cmd; run_cmd; export_chrome_cmd;
            stats_cmd; check_proof_cmd; explain_cmd; serve_cmd; submit_cmd;
            cancel_cmd; shutdown_cmd;
          ]))
