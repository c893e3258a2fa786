(** The read side of the telemetry system: parse a JSON-lines trace
    back into typed records and compute the quantities the paper's
    evaluation argues about — per-loop convergence diagnostics
    (iterations to fixpoint, counterexample yield, solver-time
    attribution), a span flame profile (self vs. total time over the
    reconstructed span tree), and a cross-trace regression diff with
    fixed limits.

    Everything here is offline: it reads traces that {!Obs} wrote, it
    never touches the live registry, and it has no dependencies beyond
    {!Json} and {!Metrics} (for histogram percentiles). *)

(** {1 Trace ingestion} *)

val load : string -> (Trace.record list, string) result
(** Read a JSONL trace file through {!Trace.read}; blank lines are
    skipped, the first line that does not decode aborts with its line
    number, and a trace without records is an error. *)

(** {1 Validation} *)

val check : ?require:string list -> (int * Trace.record) list -> string list
(** The rules behind [trace_check], over the line-numbered records of
    {!Trace.read}: every violation, each naming its line when it has
    one; [[]] accepts the trace. Rejected are negative times, emission
    times (a span's [t + dur]) going backwards, a span not directly
    inside a completed span one level up on its domain, a loop event
    outside its loop's [loop_started] .. [loop_finished] or after its
    [budget_exhausted], an empty loop name (but on a [solver_call] or
    [certificate] made after its loop ended, such as OGIS's final
    equivalence check or GameTime's WCET test), an unknown budget
    reason, [progress] going backwards, [seconds_stalled <= 0], a [deduce_ms] below 0 or
    past [elapsed], a [certificate] without an unpaired unsat
    [solver_call] or a non-negative [proof_bytes] and [core_size], a
    [requeue] outside [1..restart_budget], [degraded_entered]/[_exited]
    out of turn (a trailing open entered is accepted), a trace not
    ending in a metrics snapshot, and a loop in [require] that is
    absent, never finishes or has no iterations. *)

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
  lr_deduce : float option;
      (** seconds the loop's deductive engine took (the [deduce_ms]
          attribute of [loop_finished]), when recorded; the inductive
          engine's share is the rest of [lr_elapsed] *)
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

val analyze : Trace.record list -> t

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
(** Machine output, behind [trace_report --json]. *)

(** {1 Report driver} *)

val run_report :
  ?top:int -> ?json:bool -> ?against:string -> string -> (int, string) result
(** The whole of [trace_report]: analyze the trace at the given path and
    print the report (or, with [json], the machine summary) to stdout.
    With [against], a second trace, also print its diff and a pass/fail
    verdict. The diff compares the two summaries' figures present on
    both sides, keyed by path through named loop runs
    ([loops.ogis.seconds], [loops.ogis#2.conflicts],
    [metrics.sat.propagations]), and flags a current/baseline ratio past
    a fixed limit per class: 1.5 for seconds (skipped when both sides
    are under 0.05 s), 1.4 for conflicts and propagations, 1.25 for
    iterations and solver calls; a ratio under 1/limit is listed as an
    improvement. Returns the suggested exit code: [Ok 0] on pass,
    [Ok 1] on regression, [Error _] on I/O or parse failure. *)
