(** A CDCL SAT solver with MiniSat-style incrementality.

    Implements the standard conflict-driven clause learning architecture:
    two-watched-literal unit propagation with blocking literals, first-UIP
    conflict analysis with non-chronological backjumping, VSIDS variable
    activities with phase saving, Luby-sequence restarts, and a learned
    clause database with LBD (glue) tracking and periodic geometric
    reduction. This is the deductive engine [D] underneath every
    bit-vector query in the repository.

    The solver is fully incremental: clauses can be added between
    [solve] calls, queries can carry assumption literals, and
    {!push}/{!pop} open retractable scopes implemented with activation
    literals, so counterexample-guided loops keep one solver (and its
    learned clauses) alive across iterations. *)

type t

(** Why a solve stopped without a verdict. *)
type reason =
  | Budget_exhausted
      (** a {!limits} counter (conflicts/propagations/steps) ran out *)
  | Deadline  (** the {!limits} wall-clock deadline passed *)
  | Interrupted
      (** the {!limits} [stop] hook answered [true], or a fault was
          injected at the solve boundary (see [Fault]) *)

val reason_to_string : reason -> string
(** ["budget_exhausted"] / ["deadline"] / ["interrupted"]. *)

type result =
  | Sat
  | Unsat
  | Unknown of reason
      (** The query was abandoned. The solver is left at decision level
          0 with clauses, learned clauses and statistics intact, so it
          remains usable; no model is available. *)

(** Cumulative solver statistics (since [create]). *)
type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;  (** literals propagated *)
  restarts : int;
  solves : int;  (** [solve]/[solve_with_assumptions] calls *)
  learnts : int;  (** learned clauses currently alive *)
  learnts_deleted : int;  (** learned clauses removed by DB reduction *)
  db_reductions : int;
  simplifications : int;  (** level-0 sweeps of the clause arena *)
  clauses : int;  (** total clauses alive (problem + learnt) *)
  vars : int;
  lbd_sum : int;  (** sum of learned-clause LBDs (unit learnts count 1) *)
  lbd_max : int;
  max_assumption_depth : int;
      (** largest assumption count (explicit + scope literals) any solve
          carried *)
}

type global_stats = {
  g_solves : int;
  g_conflicts : int;
  g_propagations : int;
}

val create : ?learnt_limit:int -> unit -> t
(** [learnt_limit] overrides the initial learned-clause cap (before
    geometric growth); the default is derived from the problem size.
    Mainly useful to force database reductions in tests.

    A variable is first decided negative, before phase saving takes
    over, and the [i]-th search segment allows [100 * luby i]
    conflicts. When the proof plane is enabled (see [Proof]) the
    solver gets a fresh proof spool of its own. *)

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val num_vars : t -> int
val num_clauses : t -> int
val num_learnts : t -> int
val num_conflicts : t -> int
(** Conflicts encountered during all [solve] calls so far. *)

val stats : t -> stats

val global_stats : unit -> global_stats
(** Process-wide totals across {e all} solver instances, surviving
    solver teardown; used by the bench harness to total a loop's
    solver work over every solver it creates. A thin shim over the
    [Obs.Metrics] registry ([sat.solves] / [sat.conflicts] /
    [sat.propagations]), so these totals and a metrics snapshot can
    never drift apart. *)

val reset_global_stats : unit -> unit
(** Zeroes only the three counters above; prefer [Obs.Metrics.reset] to
    clear the whole registry. *)

val add_clause : t -> Lit.t list -> unit
(** Add a clause. Tautologies are dropped; the empty clause makes the
    instance trivially unsatisfiable. All mentioned variables must have
    been allocated with [new_var]. Clauses may be added freely between
    [solve] calls. Inside an open {!push} scope the clause is guarded by
    the scope's activation literal and disappears at the matching
    {!pop}. *)

val add_clause_permanent : t -> Lit.t list -> unit
(** Like {!add_clause} but never scope-guarded: the clause survives every
    [pop]. Encoders whose output wires are cached across scopes (Tseitin
    gate definitions) must use this. *)

val push : t -> unit
(** Open an assumption-literal scope: subsequent {!add_clause}s are
    retractable by the matching {!pop}. Scopes nest. *)

val push_named : t -> string -> unit
(** Like {!push}, but names the scope's activation variable so unsat
    cores blaming this scope render readably (see {!core_names}). *)

val pop : t -> unit
(** Close the innermost scope, permanently retracting its clauses.
    Learned clauses derived from them remain (they are satisfied by the
    retired activation literal and eventually reclaimed by database
    reduction). Raises [Invalid_argument] without an open scope. *)

val num_scopes : t -> int

val solve : t -> result
(** Decide satisfiability under the currently open scopes. May be called
    repeatedly, with clauses added between calls. *)

val solve_with_assumptions : t -> Lit.t list -> result
(** Like [solve] but additionally under the given assumption literals. *)

val value : t -> int -> bool
(** [value s v] is the truth value of variable [v] in the model found by
    the last successful [solve]. Unassigned variables read as [false]. *)

val model : t -> bool array
(** The full model (indexed by variable) after a [Sat] answer. *)

val luby : int -> int
(** The Luby restart sequence, 1-indexed: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8…
    Iterative; exposed for testing. *)

(** {2 Resource limits and cooperative cancellation}

    Limits make a single solve call abandonable: when any counter runs
    out or the deadline passes, the call returns [Unknown] with the
    matching {!reason} instead of a verdict, at decision level 0 and
    fully usable for further queries. The counter limits are
    deterministic — they bound per-call deltas and are checked at the
    top of every search step, before the step can conclude [Sat] or
    [Unsat] — while the deadline is polled every 128 steps and is
    inherently wall-clock dependent. A trivially unsatisfiable instance
    (empty clause already derived, or assumptions false at the root)
    still answers [Unsat]: no search happens, so no budget applies. *)

type limits = {
  max_conflicts : int option;  (** conflicts allowed for one call *)
  max_propagations : int option;  (** literal propagations for one call *)
  max_steps : int option;  (** search steps (conflicts + decisions) *)
  deadline : float option;
      (** absolute wall-clock cutoff, [Unix.gettimeofday] scale *)
  stop : (unit -> bool) option;
      (** cooperative cancellation hook, polled with the deadline (every
          128 steps): answering [true] abandons the call with
          [Unknown Interrupted]. It is the solver's one cancellation
          hook. It rides inside the limits record, so budget bridges
          like [Sciduction.Loop.solve] propagate it to every solver a
          loop constructs without the loop knowing it exists. The
          verification server cancels in-flight jobs through this; it
          must be cheap and safe to call from the solving domain (e.g.
          [Par.Cancel.is_set] on a token another domain sets). *)
}

val no_limits : limits

val set_limits : t -> limits -> unit
(** Install limits for subsequent solve calls (each call is bounded
    independently: counters limit per-call deltas). Persists until
    changed or {!clear_limits}. *)

val clear_limits : t -> unit

val limits : t -> limits

(** {2 Unsat cores and proof certificates}

    Every [Unsat] verdict records the subset of its assumption literals
    (explicit assumptions and open-scope activation literals) that the
    final conflict actually depended on — MiniSat-style final-conflict
    analysis, run unconditionally so verdicts and solver behaviour are
    identical whether or not anyone reads the core. When the proof
    plane is enabled ([Proof.enable]), each [Unsat] additionally issues
    a DRAT-backed certificate and emits an [Obs] [certificate] event. *)

val unsat_core : t -> Lit.t list
(** The failed assumptions of the most recent [Unsat], as assumed
    (empty for verdicts that hold without assumptions, e.g. a
    root-level conflict). Meaningless after a [Sat]/[Unknown] answer. *)

val core_names : t -> string list
(** {!unsat_core} rendered through the names registered with
    {!set_name}/{!push_named}; unnamed literals render as ["lit<n>"]
    (their signed DIMACS integer). *)

val set_name : t -> int -> string -> unit
(** [set_name s v name] names variable [v]'s constraint for core
    reporting (activation literals of named assertions, selector
    variables of candidate clauses, ...). *)
