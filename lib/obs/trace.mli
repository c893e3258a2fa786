(** The trace record schema and its codec: the one place where a
    telemetry record becomes a JSON line and back.

    The emitter ({!Obs}) encodes every span, event and metrics snapshot
    through {!to_json}; every reader — [Obs.Analyze], its [check]
    behind [trace_check], and the Chrome export — decodes through
    {!of_json}. Event names and their typed fields are spelled here and
    nowhere else, so a writer and a reader cannot drift apart.

    Adding an event means one constructor in {!Schema.event}, one case
    in the encoder and one in the decoder; the compiler then points at
    every reader whose match is no longer exhaustive.

    The wire format, one JSON object per line:
    - span: [t], ["kind":"span"], [name], [dur], [depth], [dom],
      [attrs];
    - event: [t], ["kind":"event"], [name], [loop], [dom], [attrs],
      where the event's typed fields lead [attrs] (an [iteration]'s
      [index], a [solver_call]'s [result], ...);
    - metrics: [t], ["kind":"metrics"], [metrics] (the registry
      snapshot, see {!Metrics.to_json}). *)

module Schema : sig
  (** Attribute values attached to spans and events. *)
  type value =
    | Int of int
    | Float of float
    | Bool of bool
    | String of string

  type attrs = (string * value) list

  (** The shared vocabulary of the paper's counterexample-guided loops
      (OGIS, CEGAR, BMC, invariant generation, L*, GameTime): an
      iteration begins, a candidate is proposed, an oracle delivers a
      verdict, a counterexample joins the example set, a solver call
      completes. Each event names its loop, so interleaved loops (CEGAR
      driving BMC) stay distinguishable in one trace. The server plane
      adds its supervision events under the loop name ["server"]. *)
  type event =
    | Loop_started of { loop : string; attrs : attrs }
    | Iteration of { loop : string; index : int; attrs : attrs }
    | Candidate of { loop : string; attrs : attrs }
    | Oracle_verdict of { loop : string; verdict : string; attrs : attrs }
    | Counterexample of { loop : string; attrs : attrs }
    | Solver_call of { loop : string; result : string; attrs : attrs }
        (** [loop] is [""] for a call made after its loop ended, such
            as OGIS's final equivalence check or GameTime's WCET test *)
    | Certificate of { loop : string; attrs : attrs }
        (** a proof certificate was issued for an unsat solver verdict
            (see [Smt.Proof]); carries [cert], [proof_bytes],
            [core_size] and the core's constraint names. Emitted at most
            once per solver call, directly after the matching
            [solver_call] record. *)
    | Progress of { loop : string; iteration : int; attrs : attrs }
        (** rate-limited liveness heartbeat: the highest iteration the
            loop has reached, plus whatever the iteration carried
            (depth, budget remaining). Synthesized by [Obs.emit] from
            [Iteration] when [Obs.set_progress_interval] is positive —
            at most one per loop per interval. *)
    | Stall_detected of {
        loop : string;
        iteration : int;
        seconds_stalled : float;
        attrs : attrs;
      }
        (** the watchdog ([Obs.check_stalls]) saw no iteration advance
            for a full window. Diagnostic only: nothing is killed, and
            the loop may advance again afterwards. *)
    | Budget_exhausted of { loop : string; reason : string; attrs : attrs }
        (** the loop's resource budget ran out; terminal for the loop —
            only [Loop_finished] may follow for the same loop *)
    | Loop_finished of { loop : string; attrs : attrs }
    | Job_requeued of {
        loop : string;
        id : string;
        requeue : int;
        restart_budget : int;
        attrs : attrs;
      }
        (** server plane ([loop = "server"]): a dispatcher died while
            holding this job; the supervisor put it back on the queue.
            [requeue] is the victim's cumulative requeue count, always
            [<= restart_budget] — past the budget the job is given up
            with a typed [internal_error] instead. *)
    | Degraded_entered of { loop : string; reason : string; attrs : attrs }
        (** server plane: sustained overload or repeated dispatcher
            failure; the daemon now sheds fresh heavy jobs and only
            serves cache/warm hits *)
    | Degraded_exited of { loop : string; attrs : attrs }
        (** server plane: pressure receded; normal admission resumed *)
end

include module type of struct
  include Schema
end

(** One trace line. *)
type record =
  | Span of {
      t : float;  (** start, seconds since [Obs.enable] *)
      name : string;
      dur : float;
      depth : int;  (** nesting level at entry, per domain *)
      dom : int;  (** emitting domain; read as 0 when absent *)
      attrs : attrs;
    }
  | Event of { t : float; dom : int; event : event }
  | Metrics of { t : float; metrics : (string * Json.t) list }

val name : event -> string
(** The event's wire name ([loop_started], [solver_call], ...). *)

val loop : event -> string

val fields : event -> string * string * attrs
(** The event as it goes on the wire: its name, its loop, and its
    attributes with the typed fields leading. *)

val json_of_value : value -> Json.t
val json_of_attrs : attrs -> Json.t

val int_of_value : value -> int option
(** [Int], or a [Float] with an integral value. *)

val float_of_value : value -> float option
(** [Float], or an [Int] widened. *)

val string_of_value : value -> string option

val to_json : record -> Json.t
(** The encoder. A non-finite float prints as [null]. *)

val of_json : Json.t -> (record, string) result
(** The decoder. It rejects an unknown record kind, an unknown event
    name, and a missing or ill-typed wire or typed field. An attribute
    (or a typed float field) that reads [null] decodes as [nan], the
    value whose encoding it is. Encoding a decoded record gives back
    the line it was decoded from, for every line {!to_json} writes. *)

val read : string -> ((int * record) list, string) result
(** The records of a JSONL trace file with their 1-based line numbers;
    blank lines are skipped. The first line that fails to parse or
    decode aborts the read with an error naming its line number. *)
