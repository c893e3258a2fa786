(** Resource budgets for counterexample-guided loops.

    Every sciduction loop alternates inductive guesses with calls into
    the deductive engine, and neither side is bounded a priori: a loop
    either converges or runs forever. A {!t} caps a run along three
    axes — loop iterations, a pooled allowance of SAT conflicts shared
    by every solver call the loop makes, and a wall-clock deadline —
    and a {!meter} meters a single run against it. Loops that run out
    return [Exhausted] with the best partial answer accumulated so far
    (see {!outcome}) instead of diverging or raising.

    Iteration and conflict accounting is deterministic: the same query
    sequence exhausts at the same point on every run. Only the deadline
    is inherently wall-clock dependent. *)

type t = {
  iterations : int option;  (** max loop iterations, [None] = unlimited *)
  conflicts : int option;
      (** pooled SAT-conflict allowance across all solver calls *)
  seconds : float option;  (** wall-clock allowance for the whole run *)
  cancel : (unit -> bool) option;
      (** cooperative cancellation hook: once it answers [true], the
          loop stops at its next budget check (and, through
          [Sciduction.Loop.solve], any in-flight solver call stops
          at its next poll) with reason {!Cancelled}. Must be cheap and
          safe to call from any domain — an [Atomic.get] like
          [Par.Cancel.is_set]. The verification server cancels jobs on
          client disconnect through this. *)
}

val unlimited : t
(** No caps on any axis; metering against it never exhausts. *)

val limited :
  ?iterations:int ->
  ?conflicts:int ->
  ?seconds:float ->
  ?cancel:(unit -> bool) ->
  unit ->
  t

val is_unlimited : t -> bool

val pp : Format.formatter -> t -> unit

(** Why a run stopped short of convergence. *)
type reason =
  | Iterations  (** the iteration cap was reached *)
  | Conflicts  (** the pooled conflict allowance ran dry *)
  | Deadline  (** the wall-clock deadline passed *)
  | Solver
      (** the deductive engine answered Unknown for a non-budget reason
          (cooperative interrupt, injected fault) *)
  | Cancelled
      (** the budget's [cancel] hook fired between solver calls. A
          cancellation observed {e inside} a solver call surfaces as
          [Solver] instead (the solver only reports a generic
          interrupt); callers that own the hook — the server — check it
          directly to classify the outcome. *)

val reason_to_string : reason -> string

(** A budgeted loop either converges to its usual result or stops with
    the best partial answer it had when the budget ran out. *)
type ('a, 'p) outcome =
  | Converged of 'a
  | Exhausted of 'p

(** {2 Metering a run} *)

type meter
(** Mutable per-run accounting against one {!t}, owned by the domain
    that runs the loop: its counters are plain mutable fields, not safe
    to update from several domains at once. Only the budget's [cancel]
    hook is meant to be read across domains. The deadline is fixed at
    {!start}. *)

val start : t -> meter

val budget : meter -> t

val tick : meter -> reason option
(** Charge one loop iteration, then report the first exhausted axis if
    any (iterations, then conflicts, then deadline). The iteration that
    trips the cap is {e not} run: callers check before doing the work. *)

val check : meter -> reason option
(** Like {!tick} without charging an iteration. *)

val charge_conflicts : meter -> int -> unit
(** Drain part of the pooled conflict allowance (a per-solver-call
    delta). *)

val used_iterations : meter -> int
val used_conflicts : meter -> int

val remaining_conflicts : meter -> int option
(** Conflicts left in the pool ([None] = unlimited); never negative. *)

val deadline : meter -> float option
(** Absolute deadline ([Unix.gettimeofday] scale) fixed when the meter
    started; [None] = no deadline. *)

val cancel_hook : meter -> (unit -> bool) option
(** The budget's cancellation hook, for bridges that install it on
    solvers ([Sciduction.Loop.solve]). *)
