(** The loop driver: every sciduction loop runs through {!run}.

    An instance of sciduction (Section 2) is a triple ⟨H, I, D⟩: the
    inductive engine I proposes artifacts of the class H, and a
    lightweight deductive engine D checks them or labels examples. The
    six loops of this repository — OGIS, CEGAR, BMC, invariant
    generation, L* and GameTime — differ only in those steps. What they
    share is owned here, once:

    - the run's {!Budget.meter} and the loop's own iteration cap;
    - the metered D call ({!solve}): each solver call is bounded by what
      is left of the meter at that moment and its conflicts are charged
      back afterwards;
    - the typed loop events ([Obs.Loop]);
    - the ending: [loop_finished] on convergence, [budget_exhausted]
      then [loop_finished] on exhaustion, and [loop_finished] with
      [outcome = "raised"] when the body raises (the exception is then
      re-raised, and the loop no longer owns later solver calls);
    - the time spent in D, reported as [deduce_ms] on [loop_finished].

    A loop supplies its I and D steps as the body of {!run} and the
    attributes of its ending. *)

type t
(** A running loop. Its D calls run on the domain that started it. *)

val run :
  ?attrs:Obs.attrs ->
  ?max_iterations:int ->
  budget:Budget.t ->
  finished:('a -> Obs.attrs) ->
  exhausted:('p -> Budget.reason * Obs.attrs * Obs.attrs) ->
  string ->
  (t -> ('a, 'p) Budget.outcome) ->
  ('a, 'p) Budget.outcome
(** [run name ~budget ~finished ~exhausted body] meters [body] against
    [budget] as the loop [name], started with [attrs]. On
    [Converged a] the loop finishes with [finished a]. On [Exhausted p],
    [exhausted p] gives the reason, the [budget_exhausted] attributes and
    the [loop_finished] attributes that follow [outcome = "exhausted"].
    [max_iterations] caps {!tick}s before the budget's own axes. *)

val tick : t -> Budget.reason option
(** Charge one iteration, then report the first exhausted axis: the
    loop's [max_iterations], then the budget's (see {!Budget.tick}). The
    iteration that trips a cap is not run: callers check before doing
    the work. *)

(** {1 The deductive engine} *)

val deduce : t -> ('a -> 'b) -> 'a -> 'b
(** [deduce l d q] asks D the query [q]. While the loop is traced, the
    wall time D spends is summed into [deduce_ms]. Untraced, it is
    [d q]. *)

val solve : t -> conflicts:(unit -> int) -> (Smt.Sat.limits -> 'a) -> 'a
(** The metered D call: [solve l ~conflicts d] runs [d limits] through
    {!deduce}, where [limits] bounds the call by the meter's remaining
    conflict pool, its deadline and its cancellation hook. [conflicts]
    reads the solver's cumulative conflict count; the call's delta is
    charged to the meter. *)

val reason_of_sat : Smt.Sat.reason -> Budget.reason
(** The loop-level reason for a solver's Unknown: conflict-budget
    exhaustion, deadline, or (for interrupts and injected faults)
    [Budget.Solver]. *)

(** {1 Loop events}

    No-ops while tracing is off. *)

val iteration : ?attrs:Obs.attrs -> t -> int -> unit
(** An iteration begins. The budget's headroom is appended to [attrs]:
    [conflicts_left] and [deadline_in] (seconds), each only when that
    axis is limited. *)

val candidate : ?attrs:Obs.attrs -> t -> unit
val verdict : ?attrs:Obs.attrs -> t -> string -> unit
val counterexample : ?attrs:Obs.attrs -> t -> unit
