(* Validator for JSON-lines telemetry traces, used by CI's perf-smoke
   job and the test suite:

     trace_check out.jsonl --require-loop ogis

   Checks that every line parses as a JSON object of a known record
   kind, that timestamps and durations are sane, that emission times
   are monotonically non-decreasing (spans are emitted at completion,
   so a span's emission time is t + dur), that span depths are
   consistent with the nesting their intervals imply (every non-root
   completed span sits directly inside a completed span one level up),
   that each loop's event stream is well-formed (loop_started first,
   iterations before loop_finished, nothing after loop_finished, the
   deductive engine's [deduce_ms] within the loop's [elapsed]), that
   the server's supervision events are sane (every job_requeued inside
   its restart budget, degraded_entered/exited strictly alternating —
   a trailing open entered is tolerated, a crashed daemon dies
   degraded), and that the trace ends with a metrics snapshot. *)

module Json = Obs.Json

let fail = ref false

let error fmt =
  fail := true;
  Printf.eprintf "trace_check: ";
  Printf.kfprintf (fun oc -> output_char oc '\n') stderr fmt

type loop_state = {
  mutable started : int;
  mutable finished : int;
  mutable iterations : int;
  mutable counterexamples : int;
  mutable exhausted : bool;
      (* a budget_exhausted was seen for the current run of this loop *)
  mutable last_progress : int;
      (* highest iteration a progress record reported for the current
         run; -1 before the first one *)
}

let loops : (string, loop_state) Hashtbl.t = Hashtbl.create 8

let loop_state name =
  match Hashtbl.find_opt loops name with
  | Some st -> st
  | None ->
    let st =
      {
        started = 0;
        finished = 0;
        iterations = 0;
        counterexamples = 0;
        exhausted = false;
        last_progress = -1;
      }
    in
    Hashtbl.add loops name st;
    st

let known_events =
  [
    "loop_started"; "iteration"; "candidate"; "oracle_verdict";
    "counterexample"; "solver_call"; "certificate"; "progress";
    "stall_detected"; "budget_exhausted"; "loop_finished";
    "job_requeued"; "degraded_entered"; "degraded_exited";
  ]

(* daemon-lifetime events: they carry loop "server" but belong to no
   loop_started/loop_finished bracket *)
let server_events = [ "job_requeued"; "degraded_entered"; "degraded_exited" ]

let known_budget_reasons =
  [ "iterations"; "conflicts"; "deadline"; "solver"; "cancelled" ]

let str k r = Option.bind (Json.member k r) Json.to_str
let num k r = Option.bind (Json.member k r) Json.to_float
let int_field k r = Option.bind (Json.member k r) Json.to_int

(* float timestamps come through the JSON printer/parser round trip,
   so comparisons leave a little room *)
let eps = 1e-9

(* emission-order monotonicity: events and metrics are emitted at [t],
   spans at completion, i.e. [t + dur] *)
let last_emit = ref neg_infinity
let last_emit_line = ref 0

let check_emission lineno t =
  if t < !last_emit -. 1e-6 then
    error
      "line %d: emission time %.9f earlier than line %d's %.9f (trace not \
       in emission order)"
      lineno t !last_emit_line !last_emit;
  if t > !last_emit then begin
    last_emit := t;
    last_emit_line := lineno
  end

(* depth consistency: spans appear in completion order, children before
   parents, so completed spans wait on a pending list until a span one
   level up adopts every pending span inside its interval. Span depth is
   domain-local (each domain nests its own spans), so the pending lists
   are kept per [dom] field and nesting is checked within a domain. *)
type pending_span = {
  ps_line : int;
  ps_name : string;
  ps_depth : int;
  ps_start : float;
  ps_end : float;
}

let pending_by_dom : (int, pending_span list ref) Hashtbl.t = Hashtbl.create 4

let pending_spans_of dom =
  match Hashtbl.find_opt pending_by_dom dom with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add pending_by_dom dom l;
    l

let check_span_depth lineno ~dom name depth t t_end =
  let pending_spans = pending_spans_of dom in
  if depth < 0 then error "line %d: span %S with negative depth" lineno name
  else begin
    let inside p = p.ps_start >= t -. eps && p.ps_end <= t_end +. eps in
    let adopted, rest =
      List.partition (fun p -> p.ps_depth = depth + 1 && inside p)
        !pending_spans
    in
    ignore adopted;
    List.iter
      (fun p ->
        if p.ps_depth > depth && inside p then
          error
            "line %d: span %S (depth %d) lies inside span %S (depth %d) but \
             is not its direct child — an intermediate span never completed"
            p.ps_line p.ps_name p.ps_depth name depth)
      rest;
    pending_spans :=
      { ps_line = lineno; ps_name = name; ps_depth = depth;
        ps_start = t; ps_end = t_end }
      :: List.filter (fun p -> not (p.ps_depth > depth && inside p)) rest
  end

let check_pending_at_eof () =
  Hashtbl.iter
    (fun _dom pending ->
      List.iter
        (fun p ->
          if p.ps_depth > 0 then
            error
              "line %d: span %S completed at depth %d but no enclosing span \
               completed around it"
              p.ps_line p.ps_name p.ps_depth)
        !pending)
    pending_by_dom

(* certificate pairing: a certificate is emitted at most once per Unsat
   solver verdict, directly after its solver_call record, so at every
   point of the trace the certificates seen cannot outnumber the unsat
   solver calls seen *)
let unsat_calls = ref 0
let certificates = ref 0

(* degraded-mode pairing: entered and exited strictly alternate *)
let degraded = ref false

let check_server_event lineno name r =
  let attr k f =
    Option.bind (Json.member "attrs" r) (fun a ->
        Option.bind (Json.member k a) f)
  in
  match name with
  | "job_requeued" -> (
    if attr "id" Json.to_str = None then
      error "line %d: job_requeued without a job id" lineno;
    match (attr "requeue" Json.to_int, attr "restart_budget" Json.to_int) with
    | None, _ -> error "line %d: job_requeued without a requeue count" lineno
    | _, None -> error "line %d: job_requeued without a restart_budget" lineno
    | Some rq, Some budget ->
      if rq < 1 then
        error "line %d: job_requeued with requeue %d (must be >= 1)" lineno rq;
      if rq > budget then
        error
          "line %d: job_requeued with requeue %d past its restart budget %d"
          lineno rq budget)
  | "degraded_entered" ->
    if !degraded then
      error "line %d: degraded_entered while already degraded" lineno;
    degraded := true;
    if attr "reason" Json.to_str = None then
      error "line %d: degraded_entered without a reason" lineno
  | "degraded_exited" ->
    if not !degraded then
      error "line %d: degraded_exited without a degraded_entered" lineno;
    degraded := false
  | _ -> ()

let check_event lineno r =
  match (str "name" r, str "loop" r) with
  | None, _ -> error "line %d: event without a name" lineno
  | Some name, _ when not (List.mem name known_events) ->
    error "line %d: unknown event %S" lineno name
  | _, None -> error "line %d: event without a loop field" lineno
  | Some name, Some loop ->
    (* solver_call and certificate may carry an empty loop: portfolio
       members run in worker domains outside any loop scope *)
    if loop = "" && name <> "solver_call" && name <> "certificate" then
      error "line %d: %s event with an empty loop name" lineno name;
    let global_attr_int k =
      Option.bind (Json.member "attrs" r) (fun a ->
          Option.bind (Json.member k a) Json.to_int)
    in
    (match name with
    | "solver_call" ->
      (match
         Option.bind (Json.member "attrs" r) (fun a ->
             Option.bind (Json.member "result" a) Json.to_str)
       with
      | Some "unsat" -> incr unsat_calls
      | _ -> ())
    | "certificate" -> begin
      incr certificates;
      if !certificates > !unsat_calls then
        error
          "line %d: certificate without a preceding unsat solver_call (%d \
           certificates, %d unsat verdicts so far)"
          lineno !certificates !unsat_calls;
      (match global_attr_int "proof_bytes" with
      | None -> error "line %d: certificate without proof_bytes" lineno
      | Some b when b < 0 ->
        error "line %d: certificate with negative proof_bytes" lineno
      | Some _ -> ());
      match global_attr_int "core_size" with
      | None -> error "line %d: certificate without core_size" lineno
      | Some c when c < 0 ->
        error "line %d: certificate with negative core_size" lineno
      | Some _ -> ()
    end
    | _ -> ());
    if List.mem name server_events then check_server_event lineno name r
    else if loop <> "" then begin
      let st = loop_state loop in
      (match name with
      | "loop_started" ->
        st.started <- st.started + 1;
        st.exhausted <- false;
        st.last_progress <- -1
      | _ when st.started = 0 ->
        error "line %d: %s for loop %S before loop_started" lineno name loop
      | _ -> ());
      (match name with
      | "loop_finished" -> st.finished <- st.finished + 1
      | _ when st.finished >= st.started ->
        error "line %d: %s for loop %S after loop_finished" lineno name loop
      | _ -> ());
      (* budget_exhausted is terminal: the loop may report nothing after
         it except its loop_finished *)
      (match name with
      | "loop_finished" | "loop_started" -> ()
      | _ when st.exhausted ->
        error "line %d: %s for loop %S after budget_exhausted" lineno name
          loop
      | _ -> ());
      (match name with
      | "budget_exhausted" -> begin
        st.exhausted <- true;
        match
          Option.bind (Json.member "attrs" r) (fun a ->
              Option.bind (Json.member "reason" a) Json.to_str)
        with
        | None ->
          error "line %d: budget_exhausted for loop %S without a reason"
            lineno loop
        | Some reason when not (List.mem reason known_budget_reasons) ->
          error "line %d: budget_exhausted for loop %S with unknown reason %S"
            lineno loop reason
        | Some _ -> ()
      end
      | _ -> ());
      let attr_int k =
        Option.bind (Json.member "attrs" r) (fun a ->
            Option.bind (Json.member k a) Json.to_int)
      in
      (* progress reports the max iteration reached so far, so the
         sequence must be non-decreasing within a run *)
      (match name with
      | "progress" -> (
        match attr_int "iteration" with
        | None ->
          error "line %d: progress for loop %S without an iteration" lineno
            loop
        | Some i ->
          if i < st.last_progress then
            error
              "line %d: progress for loop %S went backwards (%d after %d)"
              lineno loop i st.last_progress;
          st.last_progress <- max st.last_progress i)
      | "stall_detected" ->
        if attr_int "iteration" = None then
          error "line %d: stall_detected for loop %S without an iteration"
            lineno loop;
        (match
           Option.bind (Json.member "attrs" r) (fun a ->
               Option.bind (Json.member "seconds_stalled" a) Json.to_float)
         with
        | None ->
          error
            "line %d: stall_detected for loop %S without seconds_stalled"
            lineno loop
        | Some s when s <= 0.0 ->
          error
            "line %d: stall_detected for loop %S with non-positive \
             seconds_stalled"
            lineno loop
        | Some _ -> ())
      | "loop_finished" -> (
        (* the deductive engine's time is part of the loop's wall time;
           the two are rounded separately, hence the microsecond slack *)
        let attr_float k =
          Option.bind (Json.member "attrs" r) (fun a ->
              Option.bind (Json.member k a) Json.to_float)
        in
        match (attr_float "deduce_ms", attr_float "elapsed") with
        | Some d, _ when d < 0.0 ->
          error "line %d: loop_finished for loop %S with negative deduce_ms"
            lineno loop
        | Some d, Some e when d > (1000.0 *. e) +. 1e-3 ->
          error
            "line %d: loop_finished for loop %S with deduce_ms %.3f past \
             its elapsed %.3f ms"
            lineno loop d (1000.0 *. e)
        | _ -> ())
      | _ -> ());
      match name with
      | "iteration" -> st.iterations <- st.iterations + 1
      | "counterexample" -> st.counterexamples <- st.counterexamples + 1
      | _ -> ()
    end

(* validates one record and returns its kind *)
let check_record lineno r =
  let t =
    match num "t" r with
    | None ->
      error "line %d: record without a timestamp" lineno;
      None
    | Some t ->
      if t < 0.0 then error "line %d: negative timestamp" lineno;
      Some t
  in
  match str "kind" r with
  | Some "span" ->
    let name =
      match str "name" r with
      | Some n -> n
      | None ->
        error "line %d: span without a name" lineno;
        "?"
    in
    let dur =
      match num "dur" r with
      | None ->
        error "line %d: span without a duration" lineno;
        None
      | Some d ->
        if d < 0.0 then error "line %d: negative duration" lineno;
        Some d
    in
    (match (t, dur) with
    | Some t, Some dur when t >= 0.0 && dur >= 0.0 ->
      check_emission lineno (t +. dur);
      (* traces predating the dom field are all single-domain *)
      let dom = Option.value (int_field "dom" r) ~default:0 in
      (match int_field "depth" r with
      | None -> error "line %d: span without a depth" lineno
      | Some depth -> check_span_depth lineno ~dom name depth t (t +. dur))
    | _ -> ());
    "span"
  | Some "event" ->
    Option.iter (check_emission lineno) t;
    check_event lineno r;
    "event"
  | Some "metrics" ->
    Option.iter (check_emission lineno) t;
    if Json.member "metrics" r = None then
      error "line %d: metrics record without a snapshot" lineno;
    "metrics"
  | _ ->
    error "line %d: unknown record kind" lineno;
    ""

let () =
  let path = ref None in
  let required = ref [] in
  let rec parse = function
    | [] -> ()
    | "--require-loop" :: name :: rest ->
      required := name :: !required;
      parse rest
    | "--require-loop" :: [] ->
      prerr_endline "trace_check: --require-loop needs an argument";
      exit 2
    | arg :: rest ->
      (match !path with
      | None -> path := Some arg
      | Some _ ->
        prerr_endline "trace_check: exactly one trace file expected";
        exit 2);
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
  let ic =
    try open_in path
    with Sys_error msg ->
      prerr_endline ("trace_check: " ^ msg);
      exit 2
  in
  let lineno = ref 0 in
  let records = ref 0 in
  let last_kind = ref "" in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         match Json.parse line with
         | Error msg -> error "line %d: %s" !lineno msg
         | Ok r ->
           incr records;
           last_kind := check_record !lineno r
       end
     done
   with End_of_file -> ());
  close_in ic;
  if !records = 0 then error "empty trace";
  if !last_kind <> "metrics" then
    error "trace does not end with a metrics snapshot (got %S)" !last_kind;
  check_pending_at_eof ();
  Hashtbl.iter
    (fun name st ->
      if st.finished > st.started then
        error "loop %S: %d loop_finished but only %d loop_started" name
          st.finished st.started)
    loops;
  List.iter
    (fun name ->
      match Hashtbl.find_opt loops name with
      | None -> error "required loop %S absent from the trace" name
      | Some st ->
        if st.finished = 0 then error "required loop %S never finished" name;
        if st.iterations = 0 then
          error "required loop %S has no iterations" name)
    !required;
  if !fail then exit 1
  else begin
    Printf.printf "trace_check: %s ok (%d records" path !records;
    Hashtbl.iter
      (fun name st ->
        Printf.printf "; %s: %d iterations, %d cexes" name st.iterations
          st.counterexamples)
      loops;
    print_endline ")"
  end
