(* Offline analysis over JSONL telemetry traces: ingestion through the
   Trace codec, per-loop convergence diagnostics, span flame profiles,
   the validator behind trace_check, and the cross-trace regression
   diff behind trace_report --against. *)

(* ----- ingestion ----- *)

open Trace

let load path =
  match Trace.read path with
  | Error msg -> Error msg
  | Ok [] -> Error "empty trace"
  | Ok lines -> Ok (List.map snd lines)

(* ----- attribute helpers ----- *)

let attr conv attrs k = Option.bind (List.assoc_opt k attrs) conv
let attr_str = attr Trace.string_of_value
let attr_int = attr Trace.int_of_value
let attr_float = attr Trace.float_of_value

(* ----- convergence diagnostics ----- *)

type trend =
  | Converging
  | Steady
  | Thrashing

let trend_to_string = function
  | Converging -> "converging"
  | Steady -> "steady"
  | Thrashing -> "thrashing"

type iteration = {
  it_index : int;
  it_start : float;
  it_dur : float;
  it_candidates : int;
  it_cexes : int;
  it_solver_calls : int;
  it_sat : int;
  it_unsat : int;
  it_conflicts : int;
  it_propagations : int;
}

type loop_run = {
  lr_loop : string;
  lr_run : int;
  lr_start : float;
  lr_finish : float;
  lr_elapsed : float;
  lr_deduce : float option;
  lr_outcome : string;
  lr_truncated : bool;
  lr_iterations : iteration list;
  lr_candidates : int;
  lr_cexes : int;
  lr_verdicts : (string * int) list;
  lr_solver_calls : int;
  lr_sat : int;
  lr_unsat : int;
  lr_conflicts : int;
  lr_propagations : int;
  lr_certs : int;
  lr_proof_bytes : int;
  lr_cores : (string * int) list;
  lr_trend : trend;
  lr_slope_ms : float;
}

(* mutable builders, frozen into the public records once the run ends *)
type it_b = {
  bi_index : int;
  bi_start : float;
  mutable bi_dur : float;
  mutable bi_candidates : int;
  mutable bi_cexes : int;
  mutable bi_solver_calls : int;
  mutable bi_sat : int;
  mutable bi_unsat : int;
  mutable bi_conflicts : int;
  mutable bi_propagations : int;
}

type run_b = {
  rb_loop : string;
  rb_run : int;
  rb_start : float;
  mutable rb_last : float;
  mutable rb_finish : float option;
  mutable rb_elapsed : float option;
  mutable rb_deduce : float option;
  mutable rb_outcome : string;
  mutable rb_iterations : it_b list; (* newest first *)
  mutable rb_candidates : int;
  mutable rb_cexes : int;
  mutable rb_solver_calls : int;
  mutable rb_sat : int;
  mutable rb_unsat : int;
  mutable rb_conflicts : int;
  mutable rb_propagations : int;
  mutable rb_certs : int;
  mutable rb_proof_bytes : int;
  rb_cores : (string, int) Hashtbl.t;
  rb_verdicts : (string, int) Hashtbl.t;
}

(* least-squares slope of the per-iteration durations; the trend label
   compares the fitted drift across the whole run against the mean, so
   a loop only reads as thrashing when late rounds dwarf early ones *)
let fit_trend durs =
  let n = List.length durs in
  if n < 3 then (Steady, 0.0)
  else begin
    let fn = float_of_int n in
    let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
    List.iteri
      (fun i d ->
        let x = float_of_int i in
        sx := !sx +. x;
        sy := !sy +. d;
        sxx := !sxx +. (x *. x);
        sxy := !sxy +. (x *. d))
      durs;
    let denom = (fn *. !sxx) -. (!sx *. !sx) in
    let slope =
      if denom = 0.0 then 0.0 else ((fn *. !sxy) -. (!sx *. !sy)) /. denom
    in
    let mean = !sy /. fn in
    if mean <= 0.0 then (Steady, 0.0)
    else begin
      let drift = slope *. float_of_int (n - 1) /. mean in
      let label =
        if drift >= 2.0 then Thrashing
        else if drift <= -0.75 then Converging
        else Steady
      in
      (label, 1000.0 *. slope)
    end
  end

let freeze_run rb =
  let finish = Option.value ~default:rb.rb_last rb.rb_finish in
  (* the open iteration ends when the run does *)
  (match rb.rb_iterations with
  | it :: _ when it.bi_dur < 0.0 ->
    it.bi_dur <- Float.max 0.0 (finish -. it.bi_start)
  | _ -> ());
  let iterations =
    List.rev_map
      (fun b ->
        {
          it_index = b.bi_index;
          it_start = b.bi_start;
          it_dur = (if b.bi_dur < 0.0 then 0.0 else b.bi_dur);
          it_candidates = b.bi_candidates;
          it_cexes = b.bi_cexes;
          it_solver_calls = b.bi_solver_calls;
          it_sat = b.bi_sat;
          it_unsat = b.bi_unsat;
          it_conflicts = b.bi_conflicts;
          it_propagations = b.bi_propagations;
        })
      rb.rb_iterations
  in
  let trend, slope_ms = fit_trend (List.map (fun i -> i.it_dur) iterations) in
  {
    lr_loop = rb.rb_loop;
    lr_run = rb.rb_run;
    lr_start = rb.rb_start;
    lr_finish = finish;
    lr_elapsed =
      Option.value ~default:(Float.max 0.0 (finish -. rb.rb_start))
        rb.rb_elapsed;
    lr_deduce = rb.rb_deduce;
    lr_outcome = rb.rb_outcome;
    lr_truncated = rb.rb_finish = None;
    lr_iterations = iterations;
    lr_candidates = rb.rb_candidates;
    lr_cexes = rb.rb_cexes;
    lr_verdicts =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) rb.rb_verdicts []
      |> List.sort compare;
    lr_solver_calls = rb.rb_solver_calls;
    lr_sat = rb.rb_sat;
    lr_unsat = rb.rb_unsat;
    lr_conflicts = rb.rb_conflicts;
    lr_propagations = rb.rb_propagations;
    lr_certs = rb.rb_certs;
    lr_proof_bytes = rb.rb_proof_bytes;
    lr_cores =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) rb.rb_cores []
      |> List.sort compare;
    lr_trend = trend;
    lr_slope_ms = slope_ms;
  }

(* ----- span tree reconstruction ----- *)

type frame = {
  fr_path : string list;
  fr_count : int;
  fr_total : float;
  fr_self : float;
}

type node = {
  n_name : string;
  n_t : float;
  n_end : float;
  n_depth : int;
  n_children : node list; (* chronological *)
}

(* Spans arrive in completion order (children before parents), so a
   pending stack of completed subtrees reconstructs the tree: a new span
   at depth d adopts the pending spans at depth d+1 that fit inside its
   interval. Deeper or earlier leftovers mean the enclosing span never
   completed (a truncated trace); they surface as roots and are counted
   as orphans. *)
let span_forest_one spans =
  let eps = 1e-9 in
  let pending = ref [] in
  let roots = ref [] in
  let orphans = ref 0 in
  List.iter
    (fun (name, t, dur, depth) ->
      let n_end = t +. dur in
      let rec take acc = function
        | top :: rest when top.n_depth > depth -> take (top :: acc) rest
        | rest -> (acc, rest)
      in
      let deeper, rest = take [] !pending in
      let children, strays =
        List.partition
          (fun c ->
            c.n_depth = depth + 1
            && c.n_t >= t -. eps
            && c.n_end <= n_end +. eps)
          deeper
      in
      orphans := !orphans + List.length strays;
      roots := List.rev_append strays !roots;
      pending :=
        { n_name = name; n_t = t; n_end; n_depth = depth; n_children = children }
        :: rest)
    spans;
  List.iter
    (fun n ->
      if n.n_depth > 0 then incr orphans;
      roots := n :: !roots)
    !pending;
  (List.sort (fun a b -> compare a.n_t b.n_t) !roots, !orphans)

(* Depth is domain-local, so completion-order reconstruction only makes
   sense within one domain: group the spans by their [dom] field, build
   each domain's forest, then merge the roots chronologically. *)
let span_forest spans =
  let by_dom : (int, (string * float * float * int) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let order = ref [] in
  List.iter
    (fun (dom, span) ->
      match Hashtbl.find_opt by_dom dom with
      | Some l -> l := span :: !l
      | None ->
        Hashtbl.add by_dom dom (ref [ span ]);
        order := dom :: !order)
    spans;
  let roots, orphans =
    List.fold_left
      (fun (roots, orphans) dom ->
        let l = Hashtbl.find by_dom dom in
        let r, o = span_forest_one (List.rev !l) in
        (List.rev_append r roots, orphans + o))
      ([], 0) !order
  in
  (List.sort (fun a b -> compare a.n_t b.n_t) roots, orphans)

let frames_of_forest roots =
  let tbl : (string list, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let rec walk path n =
    let path = path @ [ n.n_name ] in
    let dur = Float.max 0.0 (n.n_end -. n.n_t) in
    let child_time =
      List.fold_left
        (fun acc c -> acc +. Float.max 0.0 (c.n_end -. c.n_t))
        0.0 n.n_children
    in
    let self = Float.max 0.0 (dur -. child_time) in
    (match Hashtbl.find_opt tbl path with
    | Some (c, total, s) ->
      incr c;
      total := !total +. dur;
      s := !s +. self
    | None -> Hashtbl.add tbl path (ref 1, ref dur, ref self));
    List.iter (walk path) n.n_children
  in
  List.iter (walk []) roots;
  Hashtbl.fold
    (fun path (c, total, self) acc ->
      { fr_path = path; fr_count = !c; fr_total = !total; fr_self = !self }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.fr_self a.fr_self)

(* ----- the analysis ----- *)

type t = {
  a_records : int;
  a_spans : int;
  a_events : int;
  a_wall : float;
  a_complete : bool;
  a_loops : loop_run list;
  a_frames : frame list;
  a_metrics : (string * Json.t) list;
  a_orphan_spans : int;
}

let analyze records =
  let open_runs : (string, run_b) Hashtbl.t = Hashtbl.create 8 in
  let run_counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let runs = ref [] in
  (* start order, newest first *)
  let spans = ref [] in
  let metrics = ref [] in
  let wall = ref 0.0 in
  let nspans = ref 0 and nevents = ref 0 in
  let last_kind = ref `Other in
  let start_run loop t =
    let run = 1 + Option.value ~default:0 (Hashtbl.find_opt run_counts loop) in
    Hashtbl.replace run_counts loop run;
    let rb =
      {
        rb_loop = loop;
        rb_run = run;
        rb_start = t;
        rb_last = t;
        rb_finish = None;
        rb_elapsed = None;
        rb_deduce = None;
        rb_outcome = "";
        rb_iterations = [];
        rb_candidates = 0;
        rb_cexes = 0;
        rb_solver_calls = 0;
        rb_sat = 0;
        rb_unsat = 0;
        rb_conflicts = 0;
        rb_propagations = 0;
        rb_certs = 0;
        rb_proof_bytes = 0;
        rb_cores = Hashtbl.create 4;
        rb_verdicts = Hashtbl.create 4;
      }
    in
    Hashtbl.replace open_runs loop rb;
    runs := rb :: !runs;
    rb
  in
  let current loop t =
    match Hashtbl.find_opt open_runs loop with
    | Some rb ->
      rb.rb_last <- t;
      rb
    | None -> start_run loop t (* tolerated: event before loop_started *)
  in
  List.iter
    (fun r ->
      match r with
      | Span { t; name; dur; depth; dom; attrs = _ } ->
        incr nspans;
        wall := Float.max !wall (t +. dur);
        spans := (dom, (name, t, dur, depth)) :: !spans;
        last_kind := `Other
      | Metrics { t; metrics = m } ->
        wall := Float.max !wall t;
        metrics := m;
        last_kind := `Metrics
      | Event { t; event; _ } -> (
        incr nevents;
        wall := Float.max !wall t;
        last_kind := `Other;
        match event with
        | Loop_started { loop; _ } ->
          (* a stale open run of the same name is a truncated trace *)
          ignore (start_run loop t)
        | Loop_finished { loop; attrs } ->
          let rb = current loop t in
          rb.rb_finish <- Some t;
          rb.rb_elapsed <- attr_float attrs "elapsed";
          rb.rb_deduce <-
            Option.map (fun ms -> ms /. 1000.0) (attr_float attrs "deduce_ms");
          (match attr_str attrs "outcome" with
          | Some o -> rb.rb_outcome <- o
          | None -> ());
          Hashtbl.remove open_runs loop
        | Iteration { loop; index; _ } ->
          let rb = current loop t in
          (match rb.rb_iterations with
          | prev :: _ when prev.bi_dur < 0.0 ->
            prev.bi_dur <- Float.max 0.0 (t -. prev.bi_start)
          | _ -> ());
          rb.rb_iterations <-
            {
              bi_index = index;
              bi_start = t;
              bi_dur = -1.0;
              bi_candidates = 0;
              bi_cexes = 0;
              bi_solver_calls = 0;
              bi_sat = 0;
              bi_unsat = 0;
              bi_conflicts = 0;
              bi_propagations = 0;
            }
            :: rb.rb_iterations
        | Candidate { loop; _ } ->
          let rb = current loop t in
          rb.rb_candidates <- rb.rb_candidates + 1;
          (match rb.rb_iterations with
          | it :: _ -> it.bi_candidates <- it.bi_candidates + 1
          | [] -> ())
        | Counterexample { loop; _ } ->
          let rb = current loop t in
          rb.rb_cexes <- rb.rb_cexes + 1;
          (match rb.rb_iterations with
          | it :: _ -> it.bi_cexes <- it.bi_cexes + 1
          | [] -> ())
        | Oracle_verdict { loop; verdict = v; _ } ->
          let rb = current loop t in
          Hashtbl.replace rb.rb_verdicts v
            (1 + Option.value ~default:0 (Hashtbl.find_opt rb.rb_verdicts v))
        | Solver_call { loop; result; attrs } ->
          if loop <> "" then begin
            let rb = current loop t in
            let count k = Option.value ~default:0 (attr_int attrs k) in
            let conflicts = count "conflicts" in
            let propagations = count "propagations" in
            rb.rb_solver_calls <- rb.rb_solver_calls + 1;
            if result = "sat" then rb.rb_sat <- rb.rb_sat + 1;
            if result = "unsat" then rb.rb_unsat <- rb.rb_unsat + 1;
            rb.rb_conflicts <- rb.rb_conflicts + conflicts;
            rb.rb_propagations <- rb.rb_propagations + propagations;
            match rb.rb_iterations with
            | it :: _ ->
              it.bi_solver_calls <- it.bi_solver_calls + 1;
              if result = "sat" then it.bi_sat <- it.bi_sat + 1;
              if result = "unsat" then it.bi_unsat <- it.bi_unsat + 1;
              it.bi_conflicts <- it.bi_conflicts + conflicts;
              it.bi_propagations <- it.bi_propagations + propagations
            | [] -> ()
          end
        | Certificate { loop; attrs } ->
          (* a solver call made after its loop ended (OGIS's final
             equivalence check, GameTime's WCET test) certifies with an
             empty loop name; those certificates still count in the
             proof.certificates metric but cannot be attributed to a
             loop run here *)
          if loop <> "" then begin
            let rb = current loop t in
            rb.rb_certs <- rb.rb_certs + 1;
            rb.rb_proof_bytes <-
              rb.rb_proof_bytes
              + Option.value ~default:0 (attr_int attrs "proof_bytes");
            match attr_str attrs "core" with
            | Some core when core <> "" ->
              Hashtbl.replace rb.rb_cores core
                (1 + Option.value ~default:0 (Hashtbl.find_opt rb.rb_cores core))
            | _ -> ()
          end
        | Progress _ | Stall_detected _ | Budget_exhausted _ | Job_requeued _
        | Degraded_entered _ | Degraded_exited _ ->
          ()))
    records;
  Hashtbl.iter (fun _ rb -> rb.rb_finish <- None) open_runs;
  let roots, orphans = span_forest (List.rev !spans) in
  {
    a_records = List.length records;
    a_spans = !nspans;
    a_events = !nevents;
    a_wall = !wall;
    a_complete = !last_kind = `Metrics;
    a_loops = List.rev_map freeze_run !runs;
    a_frames = frames_of_forest roots;
    a_metrics = !metrics;
    a_orphan_spans = orphans;
  }

(* ----- validation: the rules behind trace_check ----- *)

type bracket = {
  mutable br_started : int;
  mutable br_finished : int;
  mutable br_iterations : int;
  mutable br_exhausted : bool; (* in the current run *)
  mutable br_progress_max : int; (* in the current run; -1 before any *)
}

type pending_span = {
  ps_line : int;
  ps_name : string;
  ps_depth : int;
  ps_start : float;
  ps_end : float;
}

let known_budget_reasons =
  [ "iterations"; "conflicts"; "deadline"; "solver"; "cancelled" ]

let check ?(require = []) lines =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let brackets : (string, bracket) Hashtbl.t = Hashtbl.create 8 in
  let bracket loop =
    match Hashtbl.find_opt brackets loop with
    | Some b -> b
    | None ->
      let b =
        {
          br_started = 0;
          br_finished = 0;
          br_iterations = 0;
          br_exhausted = false;
          br_progress_max = -1;
        }
      in
      Hashtbl.add brackets loop b;
      b
  in
  (* emission order: events and snapshots are emitted at [t], spans at
     completion, [t + dur]; the JSON round trip leaves a microsecond of
     rounding *)
  let last_emit = ref neg_infinity and last_line = ref 0 in
  let emitted line t =
    if t < !last_emit -. 1e-6 then
      error "line %d: emission time %.9f earlier than line %d's %.9f" line t
        !last_line !last_emit;
    if t > !last_emit then begin
      last_emit := t;
      last_line := line
    end
  in
  (* span depth: spans complete children first, so a completed span
     waits until a span one level up adopts it; a deeper span left
     inside a completing span means an intermediate one never completed.
     Depth is domain-local, so each domain keeps its own waiting list. *)
  let waiting : (int, pending_span list) Hashtbl.t = Hashtbl.create 4 in
  let span_depth line ~dom name depth t t_end =
    let eps = 1e-9 in
    let inside p = p.ps_start >= t -. eps && p.ps_end <= t_end +. eps in
    let rest =
      Option.value ~default:[] (Hashtbl.find_opt waiting dom)
      |> List.filter (fun p -> not (p.ps_depth = depth + 1 && inside p))
    in
    List.iter
      (fun p ->
        if p.ps_depth > depth && inside p then
          error "line %d: span %S (depth %d) lies inside span %S (depth %d) \
                 but is not its direct child"
            p.ps_line p.ps_name p.ps_depth name depth)
      rest;
    Hashtbl.replace waiting dom
      ({ ps_line = line; ps_name = name; ps_depth = depth; ps_start = t;
         ps_end = t_end }
      :: List.filter (fun p -> not (p.ps_depth > depth && inside p)) rest)
  in
  (* each certificate pairs with an earlier unsat solver_call *)
  let unsat_calls = ref 0 and certificates = ref 0 in
  let degraded = ref false in
  let loop_event line ev loop =
    let b = bracket loop in
    let bad fmt =
      error ("line %d: %s for loop %S " ^^ fmt) line (Trace.name ev) loop
    in
    (match ev with
    | Loop_started _ ->
      b.br_started <- b.br_started + 1;
      b.br_exhausted <- false;
      b.br_progress_max <- -1
    | _ when b.br_started = 0 -> bad "before loop_started"
    | Loop_finished _ -> ()
    | _ when b.br_finished >= b.br_started -> bad "after loop_finished"
    | _ when b.br_exhausted -> bad "after budget_exhausted"
    | _ -> ());
    match ev with
    | Iteration _ -> b.br_iterations <- b.br_iterations + 1
    | Budget_exhausted { reason; _ } ->
      b.br_exhausted <- true;
      if not (List.mem reason known_budget_reasons) then
        bad "with unknown reason %S" reason
    | Progress { iteration; _ } ->
      if iteration < b.br_progress_max then
        bad "went backwards (%d after %d)" iteration b.br_progress_max;
      b.br_progress_max <- max b.br_progress_max iteration
    | Stall_detected { seconds_stalled; _ } ->
      if not (seconds_stalled > 0.0) then
        bad "with non-positive seconds_stalled"
    | Loop_finished { attrs; _ } -> (
      b.br_finished <- b.br_finished + 1;
      (* D's time is part of the loop's wall time; the two are rounded
         separately, hence the microsecond slack *)
      match (attr_float attrs "deduce_ms", attr_float attrs "elapsed") with
      | Some d, _ when d < 0.0 -> bad "with negative deduce_ms"
      | Some d, Some e when d > (1000.0 *. e) +. 1e-3 ->
        bad "with deduce_ms %.3f past its elapsed %.3f ms" d (1000.0 *. e)
      | _ -> ())
    | _ -> ()
  in
  let event line ev =
    (match ev with
    | Solver_call { result = "unsat"; _ } -> incr unsat_calls
    | Certificate { attrs; _ } ->
      incr certificates;
      if !certificates > !unsat_calls then
        error "line %d: certificate without a preceding unsat solver_call" line;
      List.iter
        (fun k ->
          match attr_int attrs k with
          | Some n when n >= 0 -> ()
          | _ -> error "line %d: certificate without a non-negative %s" line k)
        [ "proof_bytes"; "core_size" ]
    | Job_requeued { requeue; restart_budget; _ } ->
      if requeue < 1 || requeue > restart_budget then
        error "line %d: job_requeued with requeue %d outside 1..%d" line
          requeue restart_budget
    (* a trailing open degraded_entered is fine: a crashed daemon dies
       degraded *)
    | Degraded_entered _ ->
      if !degraded then error "line %d: degraded_entered while degraded" line;
      degraded := true
    | Degraded_exited _ ->
      if not !degraded then
        error "line %d: degraded_exited without a degraded_entered" line;
      degraded := false
    | _ -> ());
    match (ev, Trace.loop ev) with
    (* solver calls made after their loop has ended carry no loop name:
       OGIS's final equivalence check in [Synth] and GameTime's WCET
       test in [Analysis.wcet_opt] *)
    | (Solver_call _ | Certificate _), "" -> ()
    | _, "" ->
      error "line %d: %s event with an empty loop name" line (Trace.name ev)
    (* the server's events span the daemon's life, not a loop run *)
    | (Job_requeued _ | Degraded_entered _ | Degraded_exited _), _ -> ()
    | _, loop -> loop_event line ev loop
  in
  List.iter
    (fun (line, r) ->
      let t, dur =
        match r with
        | Span { t; dur; _ } -> (t, dur)
        | Event { t; _ } | Metrics { t; _ } -> (t, 0.0)
      in
      if t < 0.0 then error "line %d: negative timestamp" line;
      if dur < 0.0 then error "line %d: negative duration" line;
      match r with
      | Span { name; depth; dom; _ } ->
        if depth < 0 then error "line %d: span %S with negative depth" line name
        else if t >= 0.0 && dur >= 0.0 then begin
          emitted line (t +. dur);
          span_depth line ~dom name depth t (t +. dur)
        end
      | Event { event = ev; _ } ->
        emitted line t;
        event line ev
      | Metrics _ -> emitted line t)
    lines;
  (match List.rev lines with
  | [] -> error "empty trace"
  | (_, Metrics _) :: _ -> ()
  | _ -> error "trace does not end with a metrics snapshot");
  Hashtbl.iter
    (fun _ ->
      List.iter (fun p ->
          if p.ps_depth > 0 then
            error "line %d: span %S at depth %d has no completed enclosing span"
              p.ps_line p.ps_name p.ps_depth))
    waiting;
  Hashtbl.iter
    (fun loop b ->
      if b.br_finished > b.br_started then
        error "loop %S: %d loop_finished but only %d loop_started" loop
          b.br_finished b.br_started)
    brackets;
  List.iter
    (fun loop ->
      match Hashtbl.find_opt brackets loop with
      | None -> error "required loop %S absent from the trace" loop
      | Some b ->
        if b.br_finished = 0 then error "required loop %S never finished" loop;
        if b.br_iterations = 0 then
          error "required loop %S has no iterations" loop)
    require;
  List.rev !errors

(* ----- report rendering ----- *)

let pp_path ppf path =
  Format.pp_print_string ppf (String.concat ";" path)

(* the loop's wall time split between its inductive engine I and its
   deductive engine D, in percent: I is whatever D did not take *)
let id_share lr =
  match lr.lr_deduce with
  | Some d when lr.lr_elapsed > 0.0 ->
    let dp = Float.round (100.0 *. Float.min 1.0 (d /. lr.lr_elapsed)) in
    Printf.sprintf "%.0f/%.0f" (100.0 -. dp) dp
  | _ -> "-"

let pp_run ppf lr =
  let line fmt = Format.fprintf ppf fmt in
  let iters = List.length lr.lr_iterations in
  line "  %-10s %3d %6d %6d %6d %7d %5d/%-5d %9.3f %7s %8.2f  %-10s %s%s@."
    lr.lr_loop lr.lr_run iters lr.lr_candidates lr.lr_cexes lr.lr_solver_calls
    lr.lr_sat lr.lr_unsat lr.lr_elapsed (id_share lr)
    (if iters = 0 then 0.0
     else 1000.0 *. lr.lr_elapsed /. float_of_int iters)
    (trend_to_string lr.lr_trend)
    (if lr.lr_outcome = "" then "-" else lr.lr_outcome)
    (if lr.lr_truncated then " (truncated)" else "")

let pp_iteration_detail ppf lr =
  let line fmt = Format.fprintf ppf fmt in
  let iters = lr.lr_iterations in
  let n = List.length iters in
  if n > 0 then begin
    line "    %s run %d: %d iterations, trend %s (%+.2f ms/iter)" lr.lr_loop
      lr.lr_run n
      (trend_to_string lr.lr_trend)
      lr.lr_slope_ms;
    if lr.lr_verdicts <> [] then begin
      line ", verdicts:";
      List.iter (fun (v, c) -> line " %s=%d" v c) lr.lr_verdicts
    end;
    line "@.";
    let shown =
      if n <= 12 then iters
      else begin
        (* keep the slowest rounds: those are the diagnosis *)
        let slowest =
          List.sort (fun a b -> compare b.it_dur a.it_dur) iters
          |> List.filteri (fun i _ -> i < 12)
        in
        List.filter (fun it -> List.memq it slowest) iters
      end
    in
    line "    %6s %9s %9s %7s %5s %6s %10s %6s@." "iter" "t(s)" "dur(ms)"
      "solves" "sat" "unsat" "conflicts" "cexes";
    List.iter
      (fun it ->
        line "    %6d %9.3f %9.2f %7d %5d %6d %10d %6d@." it.it_index
          it.it_start (1000.0 *. it.it_dur) it.it_solver_calls it.it_sat
          it.it_unsat it.it_conflicts it.it_cexes)
      shown;
    if List.length shown < n then
      line "    (%d of %d iterations shown: the slowest)@."
        (List.length shown) n
  end

(* The audit view behind `sciduction_cli explain`: for every loop run,
   which verdicts were certified and which named constraints the unsat
   cores blamed. A run with unsat solver calls but no certificates was
   recorded without --proof (or only calls made after the loop ended
   certified, which the trace cannot attribute to a loop). *)
let pp_audit ppf a =
  let line fmt = Format.fprintf ppf fmt in
  if a.a_loops = [] then line "no loop runs in this trace@."
  else
    List.iter
      (fun lr ->
        line "%s run %d: %s%s@." lr.lr_loop lr.lr_run
          (if lr.lr_outcome = "" then "(no outcome)" else lr.lr_outcome)
          (if lr.lr_truncated then " (truncated)" else "");
        line "  %d solver calls (%d sat, %d unsat), %d iterations@."
          lr.lr_solver_calls lr.lr_sat lr.lr_unsat
          (List.length lr.lr_iterations);
        if lr.lr_certs = 0 then begin
          if lr.lr_unsat > 0 then
            line
              "  no certificates: %d unsat verdict(s) unaudited (run with \
               --proof PREFIX to certify them)@."
              lr.lr_unsat
        end
        else begin
          line "  %d certificate(s), %d DRAT bytes@." lr.lr_certs
            lr.lr_proof_bytes;
          if lr.lr_cores = [] then
            line "  every certified core is empty: the constraints are \
                  jointly unsatisfiable with no assumption to blame@."
          else
            List.iter
              (fun (core, n) ->
                line "  blamed %d time%s: %s@." n
                  (if n = 1 then "" else "s")
                  core)
              lr.lr_cores
        end)
      a.a_loops

let pp_metrics ppf metrics =
  Metrics.pp_snapshot ppf
    (List.filter_map
       (fun (name, j) -> Option.map (fun v -> (name, v)) (Metrics.of_json j))
       metrics)

let pp_report ?(top = 12) ppf a =
  let line fmt = Format.fprintf ppf fmt in
  line "records %d (%d spans, %d events), wall %.3fs, %s@." a.a_records
    a.a_spans a.a_events a.a_wall
    (if a.a_complete then "complete" else "TRUNCATED (no final metrics)");
  if a.a_orphan_spans > 0 then
    line "!! %d span(s) without a completed enclosing span@." a.a_orphan_spans;
  if a.a_loops <> [] then begin
    line "@.loops:@.";
    line "  %-10s %3s %6s %6s %6s %7s %11s %9s %7s %8s  %-10s %s@." "loop"
      "run" "iters" "cands" "cexes" "solves" "sat/unsat" "seconds" "I/D%"
      "ms/iter" "trend" "outcome";
    List.iter (pp_run ppf) a.a_loops;
    line "@.";
    List.iter (pp_iteration_detail ppf) a.a_loops
  end;
  if a.a_frames <> [] then begin
    let total_self =
      List.fold_left (fun acc f -> acc +. f.fr_self) 0.0 a.a_frames
    in
    line "@.flame profile (self time over the span tree):@.";
    line "  %6s %9s %9s %7s  %s@." "self%" "self(s)" "total(s)" "count" "path";
    List.iteri
      (fun i f ->
        if i < top then
          line "  %5.1f%% %9.3f %9.3f %7d  %a@."
            (if total_self > 0.0 then 100.0 *. f.fr_self /. total_self else 0.0)
            f.fr_self f.fr_total f.fr_count pp_path f.fr_path)
      a.a_frames;
    if List.length a.a_frames > top then
      line "  (%d more paths)@." (List.length a.a_frames - top)
  end;
  if a.a_metrics <> [] then begin
    line "@.metrics:@.";
    pp_metrics ppf a.a_metrics
  end

(* ----- machine summary ----- *)

let json_of_iteration it =
  Json.Obj
    [
      ("index", Json.Int it.it_index);
      ("t", Json.Float it.it_start);
      ("ms", Json.Float (1000.0 *. it.it_dur));
      ("solver_calls", Json.Int it.it_solver_calls);
      ("sat", Json.Int it.it_sat);
      ("unsat", Json.Int it.it_unsat);
      ("conflicts", Json.Int it.it_conflicts);
      ("candidates", Json.Int it.it_candidates);
      ("counterexamples", Json.Int it.it_cexes);
    ]

let json_of_run lr =
  Json.Obj
    ([
       ("name", Json.String lr.lr_loop);
       ("run", Json.Int lr.lr_run);
       ("seconds", Json.Float lr.lr_elapsed);
     ]
    @ (match lr.lr_deduce with
      | Some d -> [ ("deduce_seconds", Json.Float d) ]
      | None -> [])
    @ [
      ("iterations", Json.Int (List.length lr.lr_iterations));
      ("candidates", Json.Int lr.lr_candidates);
      ("counterexamples", Json.Int lr.lr_cexes);
      ("solver_calls", Json.Int lr.lr_solver_calls);
      ("sat", Json.Int lr.lr_sat);
      ("unsat", Json.Int lr.lr_unsat);
      ("conflicts", Json.Int lr.lr_conflicts);
      ("propagations", Json.Int lr.lr_propagations);
      ("certificates", Json.Int lr.lr_certs);
      ("proof_bytes", Json.Int lr.lr_proof_bytes);
      ( "cores",
        Json.Obj (List.map (fun (c, n) -> (c, Json.Int n)) lr.lr_cores) );
      ("trend", Json.String (trend_to_string lr.lr_trend));
      ("slope_ms_per_round", Json.Float lr.lr_slope_ms);
      ("outcome", Json.String lr.lr_outcome);
      ("truncated", Json.Bool lr.lr_truncated);
      ( "verdicts",
        Json.Obj (List.map (fun (v, c) -> (v, Json.Int c)) lr.lr_verdicts) );
      ( "iteration_detail",
        Json.List (List.map json_of_iteration lr.lr_iterations) );
      ])

let json_of_metric v =
  match Metrics.of_json v with
  | Some (Metrics.Histogram { count; sum; max; buckets; _ }) ->
    let pct p = Metrics.percentile_of_buckets ~buckets ~count ~max p in
    Json.Obj
      [
        ("count", Json.Int count);
        ("sum", Json.Int sum);
        ("p50", Json.Int (pct 50.0));
        ("p90", Json.Int (pct 90.0));
        ("p99", Json.Int (pct 99.0));
        ("max", Json.Int max);
      ]
  | _ -> v

let summary_json a =
  Json.Obj
    [
      ("schema", Json.String "sciduction.trace-report/1");
      ("records", Json.Int a.a_records);
      ("spans", Json.Int a.a_spans);
      ("events", Json.Int a.a_events);
      ("wall_seconds", Json.Float a.a_wall);
      ("complete", Json.Bool a.a_complete);
      ("orphan_spans", Json.Int a.a_orphan_spans);
      ("loops", Json.List (List.map json_of_run a.a_loops));
      ( "flame",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("path", Json.String (String.concat ";" f.fr_path));
                   ("count", Json.Int f.fr_count);
                   ("self_seconds", Json.Float f.fr_self);
                   ("total_seconds", Json.Float f.fr_total);
                 ])
             a.a_frames) );
      ( "metrics",
        Json.Obj (List.map (fun (k, v) -> (k, json_of_metric v)) a.a_metrics)
      );
    ]

(* ----- cross-trace diff ----- *)

(* The largest current/baseline ratio a figure may reach, by the class
   its key names; a timing pair where both sides are under
   [min_seconds] is scheduler noise and is skipped. *)
let max_seconds_ratio = 1.5
let max_conflicts_ratio = 1.4
let max_propagations_ratio = 1.4
let max_iterations_ratio = 1.25
let max_solves_ratio = 1.25
let min_seconds = 0.05

type finding = {
  f_key : string;
  f_base : float;
  f_cur : float;
  f_ratio : float;
  f_limit : float;
  f_regressed : bool;  (* false for an improvement past 1/limit *)
}

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* the numeric leaves of a summary as dotted keys; lists are descended
   only through elements with a "name" (loop runs), since indexed or
   per-iteration data is too positional to compare *)
let rec flatten prefix j acc =
  let seg k = if prefix = "" then k else prefix ^ "." ^ k in
  match j with
  | Json.Int i -> (prefix, float_of_int i) :: acc
  | Json.Float f -> (prefix, f) :: acc
  | Json.Obj fields ->
    List.fold_left (fun acc (k, v) -> flatten (seg k) v acc) acc fields
  | Json.List items ->
    List.fold_left
      (fun acc item ->
        match Option.bind (Json.member "name" item) Json.to_str with
        | Some name ->
          let run =
            Option.value ~default:1
              (Option.bind (Json.member "run" item) Json.to_int)
          in
          let name = if run > 1 then Printf.sprintf "%s#%d" name run else name in
          flatten (seg name) item acc
        | None -> acc)
      acc items
  | _ -> acc

let key_figures a = List.rev (flatten "" (summary_json a) [])

(* a key's ratio limit, and whether it is a timing figure *)
let limit_of_key key =
  let has = contains key in
  if has "seconds" || has "elapsed" then Some (max_seconds_ratio, true)
  else if has "conflicts" then Some (max_conflicts_ratio, false)
  else if has "propagations" then Some (max_propagations_ratio, false)
  else if has "iterations" then Some (max_iterations_ratio, false)
  else if has "solves" || has "solver_calls" then Some (max_solves_ratio, false)
  else None

(* keys present on both sides and in a class, regressions then
   improvements past 1/limit, worst ratio first *)
let diff ~base cur =
  let findings =
    List.filter_map
      (fun (key, cv) ->
        match (limit_of_key key, List.assoc_opt key base) with
        | None, _ | _, None -> None
        | Some (limit, timing), Some bv ->
          if timing && cv < min_seconds && bv < min_seconds then None
          else begin
            let ratio =
              if bv > 0.0 then cv /. bv
              else if cv > 0.0 then infinity
              else 1.0
            in
            let finding f_regressed =
              Some
                {
                  f_key = key;
                  f_base = bv;
                  f_cur = cv;
                  f_ratio = ratio;
                  f_limit = limit;
                  f_regressed;
                }
            in
            if ratio > limit then finding true
            else if ratio < 1.0 /. limit then finding false
            else None
          end)
      cur
  in
  List.sort
    (fun a b ->
      compare (b.f_regressed, b.f_ratio) (a.f_regressed, a.f_ratio))
    findings

let pp_findings ppf findings =
  let line fmt = Format.fprintf ppf fmt in
  if findings = [] then line "  no deltas beyond thresholds@."
  else
    List.iter
      (fun f ->
        line "  %-10s %-44s %12g -> %-12g %6.2fx (limit %.2fx)@."
          (if f.f_regressed then "REGRESSION" else "improved")
          f.f_key f.f_base f.f_cur f.f_ratio f.f_limit)
      findings

let findings_json findings =
  Json.List
    (List.map
       (fun f ->
         Json.Obj
           [
             ("key", Json.String f.f_key);
             ("base", Json.Float f.f_base);
             ("current", Json.Float f.f_cur);
             ("ratio", Json.Float f.f_ratio);
             ("limit", Json.Float f.f_limit);
             ("regression", Json.Bool f.f_regressed);
           ])
       findings)

(* ----- report driver (behind trace_report.exe) ----- *)

let run_report ?(top = 12) ?(json = false) ?against path =
  let analyze_file file =
    match load file with
    | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
    | Ok records -> Ok (analyze records)
  in
  let base =
    match against with
    | None -> Ok None
    | Some other ->
      Result.map (fun b -> Some (other, b)) (analyze_file other)
  in
  match (analyze_file path, base) with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok a, Ok base ->
    let findings =
      Option.map
        (fun (source, b) ->
          (source, diff ~base:(key_figures b) (key_figures a)))
        base
    in
    let code =
      match findings with
      | Some (_, fs) when List.exists (fun f -> f.f_regressed) fs -> 1
      | _ -> 0
    in
    if json then begin
      let doc =
        Json.Obj
          (("summary", summary_json a)
          ::
          (match findings with
          | None -> []
          | Some (source, fs) ->
            [
              ( "baseline",
                Json.Obj
                  [
                    ("source", Json.String source);
                    ("findings", findings_json fs);
                    ( "verdict",
                      Json.String (if code = 0 then "pass" else "fail") );
                  ] );
            ]))
      in
      print_endline (Json.to_string doc)
    end
    else begin
      Format.printf "== trace report: %s ==@.%a" path (pp_report ~top) a;
      (match findings with
      | None -> ()
      | Some (source, fs) ->
        Format.printf "@.regression check against %s:@.%a" source pp_findings
          fs;
        Format.printf "verdict: %s@." (if code = 0 then "PASS" else "FAIL"));
      Format.print_flush ()
    end;
    Ok code
