(* Validator for JSON-lines telemetry traces, used by CI's perf-smoke
   job:

     trace_check out.jsonl --require-loop ogis

   Every line must decode through [Obs.Trace]; the rules the decoded
   records must then satisfy are [Obs.Analyze.check]'s. Exit 0 on a
   valid trace, 1 on an invalid one, 2 on a usage or I/O error. *)

let () =
  let path = ref None in
  let require = ref [] in
  let rec parse = function
    | [] -> ()
    | "--require-loop" :: name :: rest ->
      require := !require @ [ name ];
      parse rest
    | "--require-loop" :: [] ->
      prerr_endline "trace_check: --require-loop needs an argument";
      exit 2
    | arg :: rest ->
      if !path <> None then begin
        prerr_endline "trace_check: exactly one trace file expected";
        exit 2
      end;
      path := Some arg;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let path =
    match !path with
    | Some p -> p
    | None ->
      prerr_endline "usage: trace_check TRACE.jsonl [--require-loop NAME]...";
      exit 2
  in
  let errors, lines =
    match Obs.Trace.read path with
    | Error msg -> ([ msg ], [])
    | Ok lines -> (Obs.Analyze.check ~require:!require lines, lines)
  in
  if errors <> [] then begin
    List.iter (fun e -> prerr_endline ("trace_check: " ^ e)) errors;
    exit 1
  end;
  let a = Obs.Analyze.analyze (List.map snd lines) in
  Printf.printf "trace_check: %s ok (%d records" path (List.length lines);
  List.iter
    (fun lr ->
      Printf.printf "; %s run %d: %d iterations, %d cexes"
        lr.Obs.Analyze.lr_loop lr.lr_run
        (List.length lr.lr_iterations)
        lr.lr_cexes)
    a.Obs.Analyze.a_loops;
  print_endline ")"
