module Json = Json
module Metrics = Metrics
module Trace = Trace
module Analyze = Analyze
module Heartbeat = Heartbeat
module Live = Live
module Statsd = Statsd
include Trace.Schema

(* ----- global state -----

   Shared across domains once a [Par] pool is in play. Three rules keep
   it coherent: (1) one process-wide [obs_lock] guards the sinks and —
   crucially — the timestamp-and-emit step, so records land in the
   trace in emission order even when several domains finish spans at
   once; (2) span depth and the loop stack are domain-local (a
   worker's spans nest among themselves, not inside whatever the
   submitter happens to be doing); (3) every span/event record carries
   the emitting domain's id, so [trace_check] and [Analyze] reconstruct
   each domain's nesting separately. *)

let enabled_flag = ref false
let quiet_flag = ref false
let t0 = ref 0.0
let obs_lock = Mutex.create ()

let depth_key = Domain.DLS.new_key (fun () -> ref 0)
let loop_stack_key = Domain.DLS.new_key (fun () : string list ref -> ref [])
let depth () = Domain.DLS.get depth_key
let loop_stack () = Domain.DLS.get loop_stack_key
let dom_id () = (Domain.self () :> int)

type sink = {
  sink_name : string;
  emit : Json.t -> unit;
  close : unit -> unit;
}

let sinks : sink list ref = ref []

let now () = Unix.gettimeofday ()
let enabled () = !enabled_flag

let enable () =
  if not !enabled_flag then begin
    enabled_flag := true;
    t0 := now ()
  end

(* ----- record plumbing ----- *)

(* must be called with [obs_lock] held; a record no sink takes is
   never encoded *)
let emit_record r =
  if !sinks <> [] then begin
    let j = Trace.to_json r in
    List.iter (fun s -> s.emit j) !sinks
  end

let emit_event ~t event =
  emit_record (Trace.Event { t; dom = dom_id (); event })

let metrics_record () =
  Trace.Metrics
    {
      t = now () -. !t0;
      metrics =
        List.map
          (fun (name, v) -> (name, Metrics.to_json v))
          (Metrics.snapshot ());
    }

let close_sinks () =
  List.iter (fun s -> s.close ()) !sinks;
  sinks := []

(* ----- heartbeat / progress plumbing -----

   [progress_interval] <= 0 keeps the progress channel silent, so
   traces written by existing callers are byte-for-byte what they were;
   the CLI turns it on only alongside the stats socket. Emission is
   piggybacked on [emit]'s Iteration branch with [obs_lock] already
   held, so a progress record can never interleave mid-trace-line and
   never outlives its loop's [loop_finished]. *)

let progress_interval = ref 0.0
let set_progress_interval s = progress_interval := s
let m_stalls = Metrics.counter "obs.stalls_detected"

let shutdown () =
  Mutex.lock obs_lock;
  if !enabled_flag && !sinks <> [] then emit_record (metrics_record ());
  close_sinks ();
  enabled_flag := false;
  Heartbeat.reset ();
  Mutex.unlock obs_lock;
  depth () := 0;
  loop_stack () := []

let reset () =
  Mutex.lock obs_lock;
  close_sinks ();
  enabled_flag := false;
  progress_interval := 0.0;
  Heartbeat.reset ();
  Mutex.unlock obs_lock;
  depth () := 0;
  loop_stack () := [];
  Metrics.reset ()

(* ----- sinks ----- *)

let add_sink s =
  Mutex.lock obs_lock;
  sinks := !sinks @ [ s ];
  Mutex.unlock obs_lock

let jsonl_sink path =
  let oc = open_out path in
  {
    sink_name = path;
    emit =
      (fun r ->
        output_string oc (Json.to_string r);
        output_char oc '\n');
    close = (fun () -> close_out oc);
  }

let memory_sink () =
  let records = ref [] in
  ( {
      sink_name = "memory";
      emit = (fun r -> records := r :: !records);
      close = ignore;
    },
    fun () -> List.rev !records )

(* ----- spans ----- *)

type span = {
  sp_name : string;
  sp_start : float; (* seconds since t0 *)
  sp_depth : int;
  sp_attrs : attrs;
  sp_live : bool;
}

let null_span =
  { sp_name = ""; sp_start = 0.0; sp_depth = 0; sp_attrs = []; sp_live = false }

let start_span ?(attrs = []) name =
  if not !enabled_flag then null_span
  else begin
    let depth = depth () in
    let d = !depth in
    depth := d + 1;
    {
      sp_name = name;
      sp_start = now () -. !t0;
      sp_depth = d;
      sp_attrs = attrs;
      sp_live = true;
    }
  end

let end_span ?(attrs = []) sp =
  if sp.sp_live && !enabled_flag then begin
    let depth = depth () in
    if !depth > 0 then depth := !depth - 1;
    (* the clock is read inside the lock: emission time is t + dur, so
       serializing the read with the write keeps the trace in emission
       order across domains *)
    Mutex.lock obs_lock;
    let dur = now () -. !t0 -. sp.sp_start in
    let dur = if dur < 0.0 then 0.0 else dur in
    emit_record
      (Trace.Span
         {
           t = sp.sp_start;
           name = sp.sp_name;
           dur;
           depth = sp.sp_depth;
           dom = dom_id ();
           attrs = sp.sp_attrs @ attrs;
         });
    Mutex.unlock obs_lock
  end

let with_span ?attrs name f =
  let sp = start_span ?attrs name in
  match f () with
  | r ->
    end_span sp;
    r
  | exception e ->
    end_span sp ~attrs:[ ("error", Bool true) ];
    raise e

(* ----- typed loop events ----- *)

let emit ev =
  if !enabled_flag then begin
    Mutex.lock obs_lock;
    let wall = now () in
    let t = wall -. !t0 in
    emit_event ~t ev;
    (* heartbeat bookkeeping and the derived progress channel, still
       under [obs_lock]: the watchdog can never see a loop advance
       before the advancing record is in the trace, and a progress
       record can never follow its loop's terminal event *)
    (match ev with
    | Loop_started { loop; _ } -> Heartbeat.started ~loop ~now:wall
    | Iteration { loop; index; attrs } -> (
      match
        Heartbeat.beat ~loop ~now:wall ~iteration:index
          ~attrs:(List.map (fun (k, v) -> (k, Trace.json_of_value v)) attrs)
          ~every:!progress_interval
      with
      | Some reached ->
        emit_event ~t (Progress { loop; iteration = reached; attrs })
      | None -> ())
    | Budget_exhausted { loop; _ } | Loop_finished { loop; _ } ->
      Heartbeat.finish ~loop
    | Candidate _ | Counterexample _ | Solver_call _ | Oracle_verdict _
    | Certificate _ | Progress _ | Stall_detected _ | Job_requeued _
    | Degraded_entered _ | Degraded_exited _ ->
      ());
    Mutex.unlock obs_lock
  end

let check_stalls ~window =
  if !enabled_flag && window > 0.0 then begin
    Mutex.lock obs_lock;
    let wall = now () in
    let t = wall -. !t0 in
    List.iter
      (fun st ->
        Metrics.incr m_stalls;
        emit_event ~t
          (Stall_detected
             {
               loop = st.Heartbeat.hb_loop;
               iteration = st.Heartbeat.hb_iteration;
               seconds_stalled = wall -. st.Heartbeat.hb_last_advance;
               attrs = [ ("window", Float window) ];
             }))
      (Heartbeat.poll ~now:wall ~window);
    Mutex.unlock obs_lock
  end

let current_loop () = match !(loop_stack ()) with [] -> "" | l :: _ -> l

module Loop = struct
  type t = {
    ln : string;
    lt0 : float;
    mutable alive : bool;
  }

  let start ?(attrs = []) name =
    if not !enabled_flag then { ln = name; lt0 = 0.0; alive = false }
    else begin
      let stack = loop_stack () in
      stack := name :: !stack;
      emit (Loop_started { loop = name; attrs });
      { ln = name; lt0 = now (); alive = true }
    end

  let name l = l.ln

  let iteration ?(attrs = []) l index =
    if l.alive then emit (Iteration { loop = l.ln; index; attrs })

  let candidate ?(attrs = []) l =
    if l.alive then emit (Candidate { loop = l.ln; attrs })

  let verdict ?(attrs = []) l verdict =
    if l.alive then emit (Oracle_verdict { loop = l.ln; verdict; attrs })

  let counterexample ?(attrs = []) l =
    if l.alive then emit (Counterexample { loop = l.ln; attrs })

  let budget_exhausted ?(attrs = []) l ~reason =
    if l.alive then emit (Budget_exhausted { loop = l.ln; reason; attrs })

  let finish ?(attrs = []) l =
    if l.alive then begin
      l.alive <- false;
      let elapsed = now () -. l.lt0 in
      let stack = loop_stack () in
      (match !stack with
      | top :: rest when top = l.ln -> stack := rest
      | s -> stack := List.filter (fun n -> n <> l.ln) s);
      emit
        (Loop_finished
           { loop = l.ln; attrs = attrs @ [ ("elapsed", Float elapsed) ] })
    end
end

let solver_call ~result attrs =
  if !enabled_flag then
    emit (Solver_call { loop = current_loop (); result; attrs })

(* ----- console ----- *)

let set_quiet q = quiet_flag := q
let quiet () = !quiet_flag

(* stderr, so diagnostics compose with piping a verdict from stdout *)
let info fmt =
  if !quiet_flag then Format.ifprintf Format.err_formatter fmt
  else Format.eprintf fmt

let pp_summary ppf records =
  Format.fprintf ppf "@.== telemetry summary ==@.";
  let decoded =
    List.fold_left
      (fun acc j ->
        Result.bind acc (fun rs ->
            Result.map (fun r -> r :: rs) (Trace.of_json j)))
      (Ok []) records
  in
  match decoded with
  | Ok rs -> Analyze.pp_report ppf (Analyze.analyze (List.rev rs))
  | Error msg -> Format.fprintf ppf "undecodable record: %s@." msg

(* ----- Chrome trace_event export ----- *)

let export_chrome ~input ~output =
  match Trace.read input with
  | Error msg -> Error msg
  | Ok records ->
    let us v = Json.Float (1e6 *. v) in
    let common name ph t =
      [
        ("name", Json.String name);
        ("ph", Json.String ph);
        ("ts", us t);
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
      ]
    in
    let args attrs = ("args", Trace.json_of_attrs attrs) in
    let chrome = function
      | Trace.Span { t; name; dur; attrs; _ } ->
        [ Json.Obj (common name "X" t @ [ ("dur", us dur); args attrs ]) ]
      | Trace.Event { t; event; _ } ->
        let name, loop, attrs = Trace.fields event in
        let label = if loop = "" then name else loop ^ "." ^ name in
        [
          Json.Obj
            (common label "i" t @ [ ("s", Json.String "t"); args attrs ]);
        ]
      | Trace.Metrics { t; metrics } ->
        (* counters only; histograms don't fit Chrome's "C" shape *)
        List.filter_map
          (fun (name, v) ->
            match v with
            | Json.Int _ | Json.Float _ ->
              let value = Json.Obj [ ("value", v) ] in
              Some (Json.Obj (common name "C" t @ [ ("args", value) ]))
            | _ -> None)
          metrics
    in
    let events = List.concat_map (fun (_, r) -> chrome r) records in
    let oc = open_out output in
    output_string oc
      (Json.to_string (Json.Obj [ ("traceEvents", Json.List events) ]));
    output_char oc '\n';
    close_out oc;
    Ok ()
