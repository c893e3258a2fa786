(** SAT-based bounded model checking.

    Unrolls the transition system to a fixed depth through the Tseitin
    layer and asks the CDCL solver whether a bad state is reachable
    within the bound. CEGAR uses it as the spuriousness check for
    abstract counterexamples (the "SAT solver" half of the deductive
    engine in Fig. 3). *)

val compile :
  Smt.Tseitin.t ->
  state:Smt.Lit.t array ->
  input:Smt.Lit.t array ->
  Ts.expr ->
  Smt.Lit.t
(** Lower a boolean expression over the given state/input wires. *)

(** One bounded query's answer. [`Cex] carries a concrete input trace
    (one valuation per executed step) reaching a bad state within the
    bound; [`Unknown] means the solver abandoned the query (limits,
    interrupt or injected fault) — the depth is {e not} proved clean. *)
type query =
  [ `Cex of bool array list | `No_cex | `Unknown of Smt.Sat.reason ]

val check : ?limits:Smt.Sat.limits -> Ts.t -> depth:int -> query
(** [check ts ~depth] decides whether a bad state is reachable within
    [depth] steps. One-shot: builds a fresh solver per call (bounded by
    [?limits] if given); loops that query repeated depths should use a
    {!session}. *)

(** {2 Persistent sessions}

    One solver for a whole sequence of bounded queries against the same
    transition system. The unrolling is extended lazily and shared
    between queries; only the bad-state assertion is per-query (scoped),
    so learned clauses about the transition relation carry across
    depths. Each frame carries its step's bad wire and the prefix
    disjunction "bad at some step in [0..d]" (one gate per frame), so
    every query asserts one existing literal and leaves no gates behind.

    Each query's scope is named after the property it asserts —
    [bad[d]] for an exact-depth query (the sweeps'), [bad[0..d]] for a
    cumulative one ([bad[0]] at depth 0) — and that name is what a
    [--proof] certificate's unsat core blames. *)

type session

val new_session : Ts.t -> session

val check_depth : ?limits:Smt.Sat.limits -> session -> depth:int -> query
(** Same contract as {!check}. Depths may be queried in any order.
    [?limits], when given, is installed on the session's solver (and
    persists for later queries until replaced). *)

val check_exact : ?limits:Smt.Sat.limits -> session -> depth:int -> query
(** One scoped query for "a bad state is reachable at step [depth]":
    [`No_cex] proves that step clean, and says nothing about the steps
    below it. A [`Cex] trace is genuine but its length — the step
    reaching the bad state — may be anywhere in [0..depth]: the query
    does not constrain the earlier steps, so the model may stumble into
    a shallower bad state. [?limits] is installed as by {!check_depth}.
    Raises [Invalid_argument] when [depth < 0]. *)

val session_conflicts : session -> int
(** Cumulative conflicts of the session's solver; callers metering a
    conflict pool charge per-query deltas of this. *)

val session_system : session -> Ts.t
val session_frames : session -> int
(** Steps unrolled so far — how warm the session is. *)

(** What an exhausted sweep still established: every depth in
    [start..proved_depth] is proved clean (no bad state reachable that
    shallow), and nothing is claimed past it. [proved_depth] is
    [start - 1] when not even the first depth finished. *)
type partial = {
  proved_depth : int;
  reason : Budget.reason;
}

exception False_start of { start : int; depth : int }
(** A sweep found a bad state at [depth], below its [start]:
    the caller's claim that the depths below [start] are clean was
    false. Raised by {!sweep} and {!sweep_session} instead of reporting
    a counterexample that would not be the minimal one. *)

val sweep :
  ?start:int ->
  ?budget:Budget.t ->
  Ts.t ->
  max_depth:int ->
  ((int * bool array list) option, partial) Budget.outcome
(** The standard BMC loop over one persistent session: query depths
    [start..max_depth] in turn — [Converged (Some (depth, trace))] for
    the first reachable bad state, [Converged None] when the whole range
    is clean. Emits one telemetry loop iteration per depth.

    Each iteration asks for step [depth]'s bad state alone (a
    {!check_exact} query), as incremental BMC does: every depth
    below it is clean — below [start] by the caller's claim, the rest
    by the sweep's own earlier iterations — so a satisfiable query's
    trace has exactly [depth] steps. A shorter one means the [start]
    claim was false and raises {!False_start}.

    [?budget] (default unlimited) meters the whole sweep: iterations
    count queried depths, the conflict pool is drained by every solver
    call, and the deadline cuts the run short mid-query. On exhaustion
    the sweep returns [Exhausted] with the deepest fully-proved depth
    and emits a [budget_exhausted] loop event. A budgeted sweep's
    verdicts agree with the unbudgeted run on the proved
    prefix (the limit checks never alter the search itself). *)

val sweep_session :
  ?start:int ->
  ?budget:Budget.t ->
  session ->
  max_depth:int ->
  ((int * bool array list) option, partial) Budget.outcome
(** The sweep over a caller-owned (possibly warm) session:
    query depths [start..max_depth] in turn, reusing every frame and
    learnt clause already in the session. The caller owns the claim
    that depths below [start] are clean — the verification server
    tracks the proved prefix per problem family and resumes sweeps at
    [proved + 1], which is where the warm-query speedup over a cold CLI
    invocation comes from. Verdicts equal {!sweep}'s for the same
    [start]. Raises [Invalid_argument] when [start < 0], and
    {!False_start} when a bad state turns up below the queried depth. *)
