(* Trace analytics over JSON-lines telemetry traces: per-loop
   convergence diagnostics, a span flame profile, and a regression diff
   against a second trace.

     trace_report TRACE.jsonl                          # human report
     trace_report TRACE.jsonl --json                   # machine summary
     trace_report TRACE.jsonl --against OLD.jsonl      # diff two traces

   The diff's limits are fixed (see Obs.Analyze.run_report).

   Exit codes: 0 pass, 1 regression beyond a limit, 2 usage or
   malformed input. *)

module Analyze = Obs.Analyze

let usage () =
  prerr_endline
    "usage: trace_report TRACE.jsonl [--json] [--top N] [--against \
     TRACE2.jsonl]";
  exit 2

let () =
  let path = ref None in
  let json = ref false in
  let top = ref 12 in
  let against = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--top" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n > 0 ->
        top := n;
        parse rest
      | _ ->
        prerr_endline "trace_report: --top expects a positive integer";
        exit 2)
    | "--against" :: v :: rest ->
      against := Some v;
      parse rest
    | ("--top" | "--against") :: [] -> usage ()
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
      Printf.eprintf "trace_report: unknown option %s\n" arg;
      usage ()
    | arg :: rest ->
      (match !path with
      | None -> path := Some arg
      | Some _ ->
        prerr_endline "trace_report: exactly one trace file expected";
        exit 2);
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let path = match !path with Some p -> p | None -> usage () in
  match Analyze.run_report ~top:!top ~json:!json ?against:!against path with
  | Ok code -> exit code
  | Error msg ->
    Printf.eprintf "trace_report: %s\n" msg;
    exit 2
