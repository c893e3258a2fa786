(** The read side of the telemetry system: parse a JSON-lines trace
    back into typed records and compute the quantities the paper's
    evaluation argues about — per-loop convergence diagnostics
    (iterations to fixpoint, counterexample yield, solver-time
    attribution), a span flame profile (self vs. total time over the
    reconstructed span tree), and a cross-trace regression diff with
    configurable thresholds.

    Everything here is offline: it reads traces that {!Obs} wrote, it
    never touches the live registry, and it has no dependencies beyond
    {!Json} and {!Metrics} (for histogram percentiles). *)

(** {1 Trace ingestion} *)

(** One trace line, typed. Span attributes keep their JSON values so
    callers can pull loop-specific fields ([depth], [conflicts], ...)
    without this module hard-coding every instrument. *)
type record =
  | Span of {
      t : float;  (** start, seconds since [Obs.enable] *)
      name : string;
      dur : float;
      depth : int;
      dom : int;  (** emitting domain; 0 in single-domain traces *)
      attrs : (string * Json.t) list;
    }
  | Event of {
      t : float;
      name : string;
      loop : string;
      attrs : (string * Json.t) list;
    }
  | Snapshot of { t : float; metrics : (string * Json.t) list }

val record_of_json : Json.t -> (record, string) result

val load : string -> (record list, string) result
(** Read a JSONL trace file; blank lines are skipped, the first
    malformed line aborts with its line number. *)

(** {1 Convergence diagnostics} *)

(** Trend of the per-iteration wall time across one loop run, from a
    least-squares fit: a converging loop spends less per round as the
    example set pins the space down; a thrashing loop pays more for
    each round than the last (total drift beyond twice the mean). *)
type trend =
  | Converging
  | Steady
  | Thrashing

val trend_to_string : trend -> string

type iteration = {
  it_index : int;  (** the loop's own index attribute *)
  it_start : float;
  it_dur : float;  (** until the next iteration or loop end *)
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
  lr_run : int;  (** 1-based among runs of the same loop name *)
  lr_start : float;
  lr_finish : float;  (** last event seen when truncated *)
  lr_elapsed : float;
      (** the loop's own [elapsed] attribute when present, else
          [lr_finish -. lr_start] *)
  lr_outcome : string;  (** [outcome] attribute of [loop_finished], or "" *)
  lr_truncated : bool;  (** no [loop_finished] in the trace *)
  lr_iterations : iteration list;  (** in loop order *)
  lr_candidates : int;
  lr_cexes : int;
  lr_verdicts : (string * int) list;  (** verdict string -> count, sorted *)
  lr_solver_calls : int;
  lr_sat : int;
  lr_unsat : int;
  lr_conflicts : int;
  lr_propagations : int;
  lr_certs : int;  (** certificate events attributed to this run *)
  lr_proof_bytes : int;  (** summed DRAT bytes over those certificates *)
  lr_cores : (string * int) list;
      (** blamed constraint-name sets (comma-joined) -> count, sorted *)
  lr_trend : trend;
  lr_slope_ms : float;  (** fitted ms-per-iteration drift per round *)
}

(** {1 Span flame profile} *)

type frame = {
  fr_path : string list;  (** root-to-leaf span names *)
  fr_count : int;
  fr_total : float;  (** summed durations *)
  fr_self : float;  (** total minus direct children *)
}

type t = {
  a_records : int;
  a_spans : int;
  a_events : int;
  a_wall : float;  (** last emission time in the trace *)
  a_complete : bool;  (** trace ends with a metrics snapshot *)
  a_loops : loop_run list;  (** in start order *)
  a_frames : frame list;  (** aggregated by path, hottest self-time first *)
  a_metrics : (string * Json.t) list;  (** final snapshot, [] if absent *)
  a_orphan_spans : int;
      (** completed spans whose enclosing span never completed *)
}

val analyze : record list -> t

val pp_report : ?top:int -> Format.formatter -> t -> unit
(** The human-readable report: header, per-loop convergence tables with
    iteration detail, the top-[top] flame paths, and the final metrics
    snapshot with histogram percentiles. *)

val pp_audit : Format.formatter -> t -> unit
(** The audit view behind [sciduction_cli explain]: per loop run, the
    verdict, its solver-call tally, and — when the run was traced with
    the proof plane on — the certificates issued and the named
    constraints their unsat cores blamed. *)

val summary_json : t -> Json.t
(** Machine output; also the baseline format {!key_figures} reads back. *)

(** {1 Cross-trace diff} *)

(** Maximum allowed current/baseline ratio per metric class. Timing
    comparisons additionally ignore sides that are both under
    [min_seconds] (scheduler noise). *)
type thresholds = {
  seconds : float;
  conflicts : float;
  propagations : float;
  iterations : float;
  solves : float;
  min_seconds : float;
}

val default_thresholds : thresholds

type finding = {
  f_key : string;
  f_base : float;
  f_cur : float;
  f_ratio : float;  (** current / baseline *)
  f_limit : float;
  f_regressed : bool;  (** false for an improvement past 1/limit *)
}

val key_figures : Json.t -> (string * float) list
(** Flatten the numeric leaves of a summary (or any comparable JSON
    document, e.g. BENCH_solver.json) into dotted keys. Lists are only
    descended when their elements carry a ["name"] field (which becomes
    the path segment); histogram bucket arrays are skipped. A top-level
    ["summary"] wrapper is unwrapped. *)

val diff :
  ?thresholds:thresholds ->
  base:(string * float) list ->
  (string * float) list ->
  finding list
(** [diff ~base cur] compares keys present on both sides whose name places them in a
    threshold class ([seconds]/[elapsed], [conflicts], [propagations],
    [iterations], [solves]/[solver_calls]); returns regressions and
    symmetric improvements, worst ratio first. *)

val regressed : finding list -> bool

val missing_keys :
  base:(string * float) list -> (string * float) list -> string list
(** The keys of [base] that {!diff} would gate (their name places them
    in a threshold class) but that have no counterpart in the current
    figures, in baseline order. {!diff} skips such keys silently, so a
    gate whose current run changed layout would compare nothing and
    pass; callers fail on a non-empty answer instead. Keys under a
    [metrics] path segment are left out: registry snapshots omit zero
    counters, so those can legitimately vanish. *)

val pp_findings : Format.formatter -> finding list -> unit
val findings_json : finding list -> Json.t

(** {1 Report driver}

    Shared by [bin/trace_report.exe] and the CLI [report] subcommand. *)

val run_report :
  ?top:int ->
  ?json:bool ->
  ?against:string ->
  ?baseline:string ->
  ?thresholds:thresholds ->
  string ->
  (int, string) result
(** Analyze the trace at the given path and print the report (or, with
    [json], the machine summary) to stdout. With [against] (a second
    trace) or [baseline] (a saved summary or BENCH-style JSON document)
    also print the diff and a pass/fail verdict. Returns the suggested
    exit code: [Ok 0] on pass, [Ok 1] on regression, [Error _] on I/O or
    parse failure. *)
