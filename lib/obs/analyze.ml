(* Offline analysis over JSONL telemetry traces: typed ingestion,
   per-loop convergence diagnostics, span flame profiles, and the
   cross-trace regression diff behind the perf baseline gate. *)

(* ----- ingestion ----- *)

type record =
  | Span of {
      t : float;
      name : string;
      dur : float;
      depth : int;
      dom : int;
      attrs : (string * Json.t) list;
    }
  | Event of {
      t : float;
      name : string;
      loop : string;
      attrs : (string * Json.t) list;
    }
  | Snapshot of { t : float; metrics : (string * Json.t) list }

let record_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let num k = Option.bind (Json.member k j) Json.to_float in
  let fields k =
    match Json.member k j with Some (Json.Obj f) -> f | _ -> []
  in
  match (str "kind", num "t") with
  | None, _ -> Error "record without a kind"
  | _, None -> Error "record without a timestamp"
  | Some "span", Some t -> (
    match (str "name", num "dur") with
    | None, _ -> Error "span without a name"
    | _, None -> Error "span without a duration"
    | Some name, Some dur ->
      let depth =
        Option.value ~default:0 (Option.bind (Json.member "depth" j) Json.to_int)
      in
      (* traces predating the dom field are all single-domain *)
      let dom =
        Option.value ~default:0 (Option.bind (Json.member "dom" j) Json.to_int)
      in
      Ok (Span { t; name; dur; depth; dom; attrs = fields "attrs" }))
  | Some "event", Some t -> (
    match str "name" with
    | None -> Error "event without a name"
    | Some name ->
      let loop = Option.value ~default:"" (str "loop") in
      Ok (Event { t; name; loop; attrs = fields "attrs" }))
  | Some "metrics", Some t -> Ok (Snapshot { t; metrics = fields "metrics" })
  | Some kind, _ -> Error (Printf.sprintf "unknown record kind %S" kind)

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let records = ref [] in
    let err = ref None in
    let lineno = ref 0 in
    (try
       while !err = None do
         let line = input_line ic in
         incr lineno;
         if String.trim line <> "" then begin
           match Json.parse line with
           | Error msg -> err := Some (Printf.sprintf "line %d: %s" !lineno msg)
           | Ok j -> (
             match record_of_json j with
             | Error msg ->
               err := Some (Printf.sprintf "line %d: %s" !lineno msg)
             | Ok r -> records := r :: !records)
         end
       done
     with End_of_file -> ());
    close_in ic;
    (match !err with
    | Some msg -> Error msg
    | None ->
      if !records = [] then Error "empty trace" else Ok (List.rev !records))

(* ----- attribute helpers ----- *)

let attr_str attrs k =
  match List.assoc_opt k attrs with Some (Json.String s) -> Some s | _ -> None

let attr_int attrs k =
  match List.assoc_opt k attrs with
  | Some v -> Option.value ~default:0 (Json.to_int v)
  | None -> 0

let attr_float attrs k =
  match List.assoc_opt k attrs with
  | Some v -> Json.to_float v
  | None -> None

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
      | Snapshot { t; metrics = m } ->
        wall := Float.max !wall t;
        metrics := m;
        last_kind := `Metrics
      | Event { t; name; loop; attrs } -> (
        incr nevents;
        wall := Float.max !wall t;
        last_kind := `Other;
        match name with
        | "loop_started" ->
          (* a stale open run of the same name is a truncated trace *)
          ignore (start_run loop t)
        | "loop_finished" ->
          let rb = current loop t in
          rb.rb_finish <- Some t;
          rb.rb_elapsed <- attr_float attrs "elapsed";
          (match attr_str attrs "outcome" with
          | Some o -> rb.rb_outcome <- o
          | None -> ());
          Hashtbl.remove open_runs loop
        | "iteration" ->
          let rb = current loop t in
          (match rb.rb_iterations with
          | prev :: _ when prev.bi_dur < 0.0 ->
            prev.bi_dur <- Float.max 0.0 (t -. prev.bi_start)
          | _ -> ());
          rb.rb_iterations <-
            {
              bi_index = attr_int attrs "index";
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
        | "candidate" ->
          let rb = current loop t in
          rb.rb_candidates <- rb.rb_candidates + 1;
          (match rb.rb_iterations with
          | it :: _ -> it.bi_candidates <- it.bi_candidates + 1
          | [] -> ())
        | "counterexample" ->
          let rb = current loop t in
          rb.rb_cexes <- rb.rb_cexes + 1;
          (match rb.rb_iterations with
          | it :: _ -> it.bi_cexes <- it.bi_cexes + 1
          | [] -> ())
        | "oracle_verdict" ->
          let rb = current loop t in
          let v = Option.value ~default:"" (attr_str attrs "verdict") in
          Hashtbl.replace rb.rb_verdicts v
            (1 + Option.value ~default:0 (Hashtbl.find_opt rb.rb_verdicts v))
        | "solver_call" ->
          if loop <> "" then begin
            let rb = current loop t in
            let result = Option.value ~default:"" (attr_str attrs "result") in
            let conflicts = attr_int attrs "conflicts" in
            let propagations = attr_int attrs "propagations" in
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
        | "certificate" ->
          (* portfolio workers certify with an empty loop name; those
             certificates still count in the proof.certificates metric
             but cannot be attributed to a loop run here *)
          if loop <> "" then begin
            let rb = current loop t in
            rb.rb_certs <- rb.rb_certs + 1;
            rb.rb_proof_bytes <- rb.rb_proof_bytes + attr_int attrs "proof_bytes";
            match attr_str attrs "core" with
            | Some core when core <> "" ->
              Hashtbl.replace rb.rb_cores core
                (1 + Option.value ~default:0 (Hashtbl.find_opt rb.rb_cores core))
            | _ -> ()
          end
        | _ -> ()))
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

(* ----- metrics snapshot helpers (parsed from JSON, not the registry) ----- *)

let buckets_of_json j =
  match j with
  | Json.List items ->
    List.filter_map
      (fun pair ->
        match pair with
        | Json.List [ le; n ] -> (
          match (Json.to_int le, Json.to_int n) with
          | Some le, Some n -> Some (le, n)
          | _ -> None)
        | _ -> None)
      items
  | _ -> []

(* count/sum/min/max/buckets objects written by the trace's final
   snapshot; returns (count, sum, max, buckets) *)
let histogram_of_json j =
  match
    ( Option.bind (Json.member "count" j) Json.to_int,
      Option.bind (Json.member "sum" j) Json.to_int,
      Option.bind (Json.member "max" j) Json.to_int )
  with
  | Some count, Some sum, Some max ->
    Some
      ( count,
        sum,
        max,
        buckets_of_json (Option.value ~default:Json.Null (Json.member "buckets" j))
      )
  | _ -> None

(* ----- report rendering ----- *)

let pp_path ppf path =
  Format.pp_print_string ppf (String.concat ";" path)

let pp_run ppf lr =
  let line fmt = Format.fprintf ppf fmt in
  let iters = List.length lr.lr_iterations in
  line "  %-10s %3d %6d %6d %6d %7d %5d/%-5d %9.3f %8.2f  %-10s %s%s@."
    lr.lr_loop lr.lr_run iters lr.lr_candidates lr.lr_cexes lr.lr_solver_calls
    lr.lr_sat lr.lr_unsat lr.lr_elapsed
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
   recorded without --proof (or only its portfolio workers certified,
   which the trace cannot attribute to a loop). *)
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
  let line fmt = Format.fprintf ppf fmt in
  List.iter
    (fun (name, v) ->
      match v with
      | Json.Int c -> line "  %-28s %d@." name c
      | Json.Float g -> line "  %-28s %g@." name g
      | Json.Obj _ -> (
        match histogram_of_json v with
        | Some (count, sum, max, buckets) ->
          let pct p =
            Metrics.percentile_of_buckets ~buckets ~count ~max p
          in
          line "  %-28s count=%d mean=%.1f p50=%d p90=%d p99=%d max=%d@." name
            count
            (if count = 0 then 0.0 else float_of_int sum /. float_of_int count)
            (pct 50.0) (pct 90.0) (pct 99.0) max
        | None -> ())
      | _ -> ())
    metrics;
  (* derived lines, mirroring the live registry's pp_summary *)
  let cval name =
    match List.assoc_opt name metrics with Some (Json.Int c) -> c | _ -> 0
  in
  let shared_hits = cval "bitblast.shared_hits" in
  let shared_misses = cval "bitblast.shared_misses" in
  if shared_hits + shared_misses > 0 then
    line "  shared recipe hit rate       %.1f%% (%d/%d)@."
      (100.0
      *. float_of_int shared_hits
      /. float_of_int (shared_hits + shared_misses))
      shared_hits
      (shared_hits + shared_misses);
  let exported = cval "portfolio.clauses_exported" in
  let imported = cval "portfolio.clauses_imported" in
  let dropped = cval "exchange.dropped" in
  if exported + imported > 0 then begin
    line "  clause sharing               %d exported, %d imported@." exported
      imported;
    if dropped > 0 then
      line "  clauses dropped in transit   %d (%.1f%% of exports)@." dropped
        (100.0 *. float_of_int dropped /. float_of_int (max 1 exported))
  end

let pp_report ?(top = 12) ppf a =
  let line fmt = Format.fprintf ppf fmt in
  line "records %d (%d spans, %d events), wall %.3fs, %s@." a.a_records
    a.a_spans a.a_events a.a_wall
    (if a.a_complete then "complete" else "TRUNCATED (no final metrics)");
  if a.a_orphan_spans > 0 then
    line "!! %d span(s) without a completed enclosing span@." a.a_orphan_spans;
  if a.a_loops <> [] then begin
    line "@.loops:@.";
    line "  %-10s %3s %6s %6s %6s %7s %11s %9s %8s  %-10s %s@." "loop" "run"
      "iters" "cands" "cexes" "solves" "sat/unsat" "seconds" "ms/iter" "trend"
      "outcome";
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
    [
      ("name", Json.String lr.lr_loop);
      ("run", Json.Int lr.lr_run);
      ("seconds", Json.Float lr.lr_elapsed);
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
    ]

let json_of_metric v =
  match histogram_of_json v with
  | Some (count, sum, max, buckets) ->
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
  | None -> v

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

type thresholds = {
  seconds : float;
  conflicts : float;
  propagations : float;
  iterations : float;
  solves : float;
  min_seconds : float;
}

let default_thresholds =
  {
    seconds = 1.5;
    conflicts = 1.4;
    propagations = 1.4;
    iterations = 1.25;
    solves = 1.25;
    min_seconds = 0.05;
  }

type finding = {
  f_key : string;
  f_base : float;
  f_cur : float;
  f_ratio : float;
  f_limit : float;
  f_regressed : bool;
}

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let rec flatten prefix j acc =
  let seg k = if prefix = "" then k else prefix ^ "." ^ k in
  match j with
  | Json.Int i -> (prefix, float_of_int i) :: acc
  | Json.Float f -> (prefix, f) :: acc
  | Json.Obj fields ->
    List.fold_left
      (fun acc (k, v) -> if k = "buckets" then acc else flatten (seg k) v acc)
      acc fields
  | Json.List items ->
    (* only descend into named collections (benchmarks, loops); indexed
       or per-iteration data is too positional to gate on *)
    List.fold_left
      (fun acc item ->
        match
          Option.bind (Json.member "name" item) Json.to_str
        with
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

let key_figures j =
  let j =
    match Json.member "summary" j with Some inner -> inner | None -> j
  in
  List.rev (flatten "" j [])

let class_of_key th key =
  if contains key "seconds" || contains key "elapsed" then
    Some (`Seconds th.seconds)
  else if contains key "conflicts" then Some (`Plain th.conflicts)
  else if contains key "propagations" then Some (`Plain th.propagations)
  else if contains key "iterations" then Some (`Plain th.iterations)
  else if contains key "solves" || contains key "solver_calls" then
    Some (`Plain th.solves)
  else None

let diff ?(thresholds = default_thresholds) ~base cur =
  let findings =
    List.filter_map
      (fun (key, cv) ->
        match (class_of_key thresholds key, List.assoc_opt key base) with
        | None, _ | _, None -> None
        | Some cls, Some bv ->
          let limit =
            match cls with `Seconds l -> l | `Plain l -> l
          in
          let timing = match cls with `Seconds _ -> true | `Plain _ -> false in
          if timing && cv < thresholds.min_seconds && bv < thresholds.min_seconds
          then None
          else begin
            let ratio =
              if bv > 0.0 then cv /. bv
              else if cv > 0.0 then infinity
              else 1.0
            in
            if ratio > limit then
              Some
                {
                  f_key = key;
                  f_base = bv;
                  f_cur = cv;
                  f_ratio = ratio;
                  f_limit = limit;
                  f_regressed = true;
                }
            else if ratio < 1.0 /. limit then
              Some
                {
                  f_key = key;
                  f_base = bv;
                  f_cur = cv;
                  f_ratio = ratio;
                  f_limit = limit;
                  f_regressed = false;
                }
            else None
          end)
      cur
  in
  List.sort
    (fun a b ->
      compare (b.f_regressed, b.f_ratio) (a.f_regressed, a.f_ratio))
    findings

let regressed findings = List.exists (fun f -> f.f_regressed) findings

let missing_keys ~base cur =
  List.filter_map
    (fun (key, _) ->
      if
        class_of_key default_thresholds key = None
        || List.mem "metrics" (String.split_on_char '.' key)
        || List.mem_assoc key cur
      then None
      else Some key)
    base

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

(* ----- report driver (shared by trace_report.exe and the CLI) ----- *)

let read_json_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    (match Json.parse content with
    | Ok j -> Ok j
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let run_report ?(top = 12) ?(json = false) ?against ?baseline
    ?(thresholds = default_thresholds) path =
  match load path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok records -> (
    let a = analyze records in
    let base =
      match (against, baseline) with
      | Some _, Some _ -> Error "--against and --baseline are exclusive"
      | Some other, None -> (
        match load other with
        | Error msg -> Error (Printf.sprintf "%s: %s" other msg)
        | Ok records -> Ok (Some (other, key_figures (summary_json (analyze records)))))
      | None, Some file -> (
        match read_json_file file with
        | Error msg -> Error msg
        | Ok j -> Ok (Some (file, key_figures j)))
      | None, None -> Ok None
    in
    match base with
    | Error msg -> Error msg
    | Ok base ->
      let summary = summary_json a in
      let findings =
        Option.map
          (fun (source, base) ->
            (source, diff ~thresholds ~base (key_figures summary)))
          base
      in
      let code =
        match findings with
        | Some (_, fs) when regressed fs -> 1
        | _ -> 0
      in
      if json then begin
        let doc =
          Json.Obj
            (("summary", summary)
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
          Format.printf "@.regression check against %s:@.%a" source
            pp_findings fs;
          Format.printf "verdict: %s@."
            (if code = 0 then "PASS" else "FAIL"));
        Format.print_flush ()
      end;
      Ok code)
