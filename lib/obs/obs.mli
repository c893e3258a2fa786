(** Telemetry for the sciduction stack: hierarchical timed spans, a
    typed event log for the counterexample-guided loops, the process-wide
    metrics registry, and pluggable sinks (JSON-lines trace files and an
    in-memory collector), plus a console summary that prints the
    in-memory records as {!Analyze}'s trace report, and a Chrome
    [trace_event] exporter for flamegraph viewing. The writer keeps no
    aggregates of its own: every figure a summary shows is read back
    from the records.

    Tracing is off by default and designed to cost ~nothing while off:
    {!start_span} reads no clock and allocates nothing observable, the
    loop event emitters return immediately, and only the registry
    counters (plain increments that predate this library) stay live.
    [enable] starts the monotonic-origin clock; every record carries a
    timestamp in seconds since then.

    The library is domain-safe: the metrics registry uses atomics, sink
    writes are serialized under one lock (records reach a JSONL trace
    whole, in emission order), and span depth and the current-loop
    stack are domain-local, so tasks on a [Par] pool trace
    independently. Each span/event record carries a [dom] field
    (the emitting domain's id); [trace_check] and {!Analyze} reconstruct
    nesting per domain. Spans must start and end on the same domain. *)

module Json = Json
module Metrics = Metrics

module Trace = Trace
(** The trace record schema and its codec: every record this library
    writes is encoded there, and every reader decodes through it. *)

module Analyze = Analyze
(** The read side: trace ingestion, convergence diagnostics, flame
    profiles, the trace validator, and the cross-trace regression
    diff. *)

module Heartbeat = Heartbeat
(** Per-loop liveness ledger behind {!check_stalls} and the stats
    endpoint's loop table. *)

module Live = Live
(** The snapshot ticker: a background thread sampling the metrics
    registry (and [Gc.quick_stat]) into a bounded ring, with
    per-interval and whole-window rates derived from consecutive
    snapshots. *)

module Statsd = Statsd
(** The scrapeable stats endpoint over a Unix-domain socket, serving
    the ticker's data as Prometheus text ([/metrics]) or JSON
    ([/json]). *)

include module type of struct
  include Trace.Schema
end
(** The attribute values and the typed loop events, re-exported from
    {!Trace.Schema} so emitters write [Obs.Int], [Obs.Job_requeued]. *)

(** {1 Lifecycle} *)

val enable : unit -> unit
(** Turn tracing on and zero the trace clock. Idempotent. *)

val enabled : unit -> bool

val shutdown : unit -> unit
(** Emit the final metrics-snapshot record, flush and close every sink,
    and disable tracing. A {!memory_sink}'s records stay readable, for
    {!pp_summary}. *)

val reset : unit -> unit
(** Testing/bench hook: disable, drop sinks without emitting the final
    record, clear the heartbeat table and the metrics registry values. *)

(** {1 Sinks} *)

type sink = {
  sink_name : string;
  emit : Json.t -> unit;  (** one record; JSONL sinks write one line *)
  close : unit -> unit;
}

val add_sink : sink -> unit

val jsonl_sink : string -> sink
(** Opens [path] for writing; each record becomes one JSON line. *)

val memory_sink : unit -> sink * (unit -> Json.t list)
(** The second component returns the records collected so far, in
    emission order. *)

(** {1 Spans}

    Records carry [t] (start, seconds since [enable]), [dur], [depth]
    (nesting level at entry) and attributes; they are emitted at span
    end, so a trace lists spans in completion order. *)

type span

val null_span : span

val start_span : ?attrs:attrs -> string -> span
(** Inert when disabled. *)

val end_span : ?attrs:attrs -> span -> unit
(** End attributes are appended after the start attributes. Ending
    [null_span] (or any span started while disabled) is a no-op. *)

val with_span : ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** Ends the span on exceptions too, tagging it [error=true]. *)

(** {1 Typed loop events}

    The loop events are {!Trace.Schema.event}; each names its loop, so
    interleaved loops (CEGAR driving BMC) stay distinguishable in one
    trace. *)

val emit : event -> unit
(** No-op while disabled. *)

val set_progress_interval : float -> unit
(** Minimum seconds between [progress] records per loop; [0.] (the
    default) disables the progress channel entirely, keeping existing
    traces unchanged. *)

val check_stalls : window:float -> unit
(** Watchdog tick: emit a [stall_detected] record (and bump the
    [obs.stalls_detected] counter) for every active loop whose last
    iteration advance is more than [window] seconds old. Each stall is
    reported once until the loop advances again. Called from the
    {!Live} ticker's [on_tick]; safe from any domain, and a no-op while
    disabled or when [window <= 0.]. *)

(** Scoped helper over {!emit}: tracks the active loop, so solver calls
    attribute themselves to it. *)
module Loop : sig
  type t

  val start : ?attrs:attrs -> string -> t
  val name : t -> string

  val iteration : ?attrs:attrs -> t -> int -> unit
  val candidate : ?attrs:attrs -> t -> unit
  val verdict : ?attrs:attrs -> t -> string -> unit
  val counterexample : ?attrs:attrs -> t -> unit

  val budget_exhausted : ?attrs:attrs -> t -> reason:string -> unit
  (** The loop is stopping short on an exhausted budget; emit just
      before the final {!finish}. *)

  val finish : ?attrs:attrs -> t -> unit
  (** Emits [loop_finished] with the loop's wall time as its [elapsed]
      attribute. Idempotent. *)
end

val current_loop : unit -> string
(** Name of the innermost active loop, or [""]. *)

val solver_call : result:string -> attrs -> unit
(** Emitted by the SAT core after each solve, with the per-call stats
    delta as attributes; attributed to {!current_loop}. *)

(** {1 Console} *)

val set_quiet : bool -> unit

val quiet : unit -> bool

val info : ('a, Format.formatter, unit) format -> 'a
(** Diagnostic printf to {e stderr}, suppressed by [set_quiet true], so
    diagnostics compose with piping a verdict from stdout. Final
    verdicts should use plain [Format.printf]. *)

val pp_summary : Format.formatter -> Json.t list -> unit
(** The console stats summary behind [--stats]: a
    [== telemetry summary ==] line, then the given records (a
    {!memory_sink}'s, after {!shutdown}) decoded through
    {!Trace.of_json} and printed by {!Analyze.pp_report} — the body
    [trace_report] prints for the same records. Callers conventionally
    print it to stderr for the same stdout-composability reason as
    {!info}. *)

(** {1 Chrome trace_event export} *)

val export_chrome : input:string -> output:string -> (unit, string) result
(** Convert a JSON-lines trace to Chrome's [trace_event] JSON format
    (load via chrome://tracing or https://ui.perfetto.dev): spans become
    complete ["X"] events, loop events become instants, the final
    metrics record becomes counter events. *)
