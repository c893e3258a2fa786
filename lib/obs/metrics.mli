(** A process-wide registry of named counters, gauges and histograms.

    Instrumented code obtains its instrument once (typically at module
    initialization) and then updates it with a single atomic memory
    operation, so the always-on cost is one fetch-and-add — no hashing,
    no branching on an enable flag. The registry owns the names: asking
    for the same name twice returns the same instrument, and a [reset]
    zeroes values while keeping every registration alive.

    The registry is domain-safe: counters and gauges are atomics,
    histograms and the name table are mutex-guarded, so solvers running
    on [Par] pool domains update the same process-wide totals without
    losing increments.

    Counters are monotone event counts (solver conflicts, cache hits).
    Gauges are last-write-wins levels (learnt-DB size). Histograms
    record integer observations into power-of-two buckets and keep
    count/sum/min/max exactly (LBD distribution, assumption depth). *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find or register. Raises [Invalid_argument] if the name is already
    registered as a different instrument kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set_counter : counter -> int -> unit
(** Used by the legacy [Sat.reset_global_stats] shim; new code should
    reset through {!reset}. *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float
val histogram : string -> histogram
val observe : histogram -> int -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> int
val hist_max : histogram -> int

val hist_percentile : histogram -> float -> int
(** [hist_percentile h p] for [p] in (0, 100]: the inclusive upper bound
    of the first power-of-two bucket holding the ceil(p/100 * count)-th
    observation, clamped to the exact maximum (so [p = 100.0] is exact).
    0 when empty. Raises [Invalid_argument] when [p] is outside
    (0, 100] — a p0 or p101 is a caller bug, not a clampable request. *)

val percentile_of_buckets :
  buckets:(int * int) list -> count:int -> max:int -> float -> int
(** Same estimate (and same [p] validation) over an exported bucket
    list (snapshot form, or a bucket list parsed back from a trace's
    metrics record). *)

type snapshot_value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : int;
      min : int;  (** 0 when empty *)
      max : int;
      buckets : (int * int) list;
          (** (inclusive upper bound, observations) for non-empty
              power-of-two buckets: 0, 1, 3, 7, 15, ... *)
    }

val snapshot : unit -> (string * snapshot_value) list
(** Every registered instrument, sorted by name. *)

val to_json : snapshot_value -> Json.t
(** The trace/stats-endpoint rendering: counters as ints, gauges as
    floats, histograms as [{count, sum, min, max, buckets}]. *)

val of_json : Json.t -> snapshot_value option
(** The inverse of {!to_json}, for snapshots read back from a trace:
    [None] for a value of no instrument's shape. An absent histogram
    [min] reads 0. *)

val moved : snapshot_value -> bool
(** A counter or gauge that is not zero, or a histogram with an
    observation. *)

val pp_snapshot : Format.formatter -> (string * snapshot_value) list -> unit
(** One line per instrument that {!moved} (histograms as count, mean,
    p50/p90/p99 and max), then the derived lines: the bit-blast and
    shared-recipe cache hit rates, the proof plane's volume and the
    certificates audited, each only when its counters moved. Both the [--stats] summary and
    the trace report print a snapshot through this. *)

val reset : unit -> unit
(** Zero all values; registrations (and the refs instrumented code
    holds) stay valid. *)
