(** Per-loop liveness registry behind the live telemetry plane.

    Every loop event stream feeds a small table of "when did this loop
    last make progress": [Obs] records a beat on each iteration event
    (under its emission lock), the [Live] ticker polls the table for
    loops whose last advance is older than the stall window, and the
    [Statsd] endpoint reads the table from its own domain to answer
    scrapes. The same entry paces the [progress] records [Obs] derives
    from the beats. The table never influences execution — a stalled
    flag is a diagnosis, not a termination ([Budget] owns termination).

    A loop advances when a beat carries a strictly larger iteration
    index than any seen for the current run. Parallel sweeps hand out
    iteration indices with a fetch-and-add and may emit them out of
    order; keeping the per-loop maximum makes the reported iteration
    (and hence the [progress] trace events derived from it) monotone.

    All operations are serialized on one private mutex, so readers on
    other domains (the watchdog, the stats server) see consistent
    entries. *)

type status = {
  hb_loop : string;
  hb_iteration : int;  (** highest iteration index this run; -1 before any *)
  hb_beats : int;  (** beats recorded this run (= iteration events seen) *)
  hb_last_advance : float;  (** wall-clock time of the last advance *)
  hb_stalled : bool;
  hb_stalled_since : float option;
  hb_attrs : (string * Json.t) list;
      (** attributes of the latest advancing beat (depth, budget left, ...) *)
}

val started : loop:string -> now:float -> unit
(** A new run of [loop] began: (re)create its entry with iteration -1,
    so a loop that hangs before its first iteration still stalls. *)

val beat :
  loop:string ->
  now:float ->
  iteration:int ->
  attrs:(string * Json.t) list ->
  every:float ->
  int option
(** Record an iteration event. Advances the entry (and clears a stalled
    flag) when [iteration] exceeds the current maximum; creates the
    entry if {!started} was never seen. Returns [Some i], the per-run
    maximum iteration index after the beat, when a [progress] record is
    due: [every > 0.] and no due beat of this run lies within the last
    [every] seconds. [None] otherwise. *)

val finish : loop:string -> unit
(** The run ended (finished or exhausted): drop the entry. The watchdog
    can no longer flag the loop, so a stall never outlives its loop. *)

val poll : now:float -> window:float -> status list
(** Mark every active loop whose last advance is more than [window]
    seconds old as stalled and return the {e newly} stalled ones (loops
    already flagged are not returned again until they recover). *)

val active : unit -> status list
(** All live entries, sorted by loop name (for the stats endpoint). *)

val reset : unit -> unit
