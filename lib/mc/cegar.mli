(** Counterexample-guided abstraction refinement (Fig. 3 of the paper).

    Sciduction instance: H is the abstract domain (which latches are
    visible), I walks the lattice of localization abstractions guided by
    spurious counterexamples, and D is the explicit-state model checker
    on the abstraction plus the SAT-based spuriousness check. Because
    the concrete system is itself an admissible abstraction, C_H = C_S
    and soundness is unconditional. *)

type result =
  | Safe of {
      visible : int list;  (** the final abstraction's visible latches *)
      iterations : int;
      abstract_latches : int;
    }
  | Unsafe of {
      trace : bool array list;  (** validated concrete input trace *)
      iterations : int;
    }

(** How to choose the latch revealed after a spurious counterexample. *)
type refinement =
  | Most_referenced
      (** the hidden latch most referenced by the visible logic — a
          syntactic version-space walk down the abstraction lattice *)
  | Decision_tree of { samples : int; seed : int }
      (** Gupta-style learning: sample reachable states (random walks)
          and bad states (SAT models), learn a decision tree separating
          them, and reveal the most informative hidden feature *)

(** What an exhausted run still holds: the visible-latch set of the
    last abstraction tried, after [iterations] completed refinements.
    No safety claim is made (the abstraction's check did not finish),
    but the set is a sound restart point: re-running with
    [?initial_visible] set to it resumes where the budget ran out. *)
type partial = {
  visible : int list;
  iterations : int;
  reason : Budget.reason;
}

val verify :
  ?initial_visible:int list ->
  ?max_iterations:int ->
  ?refinement:refinement ->
  ?budget:Budget.t ->
  Ts.t ->
  (result, partial) Budget.outcome
(** [initial_visible] defaults to the support of the bad predicate;
    [refinement] to [Most_referenced]. All spuriousness checks share
    one incremental {!Bmc.session}.

    [?budget] (default unlimited) meters the refinement loop:
    iterations are refinements (also capped by [max_iterations], which
    now exhausts instead of raising), the conflict pool is drained by
    the spuriousness checks, and a solver that answers Unknown mid-loop
    exhausts with [reason = Solver]. Verdicts that do converge are
    unconditional: [Safe] rests on the over-approximating abstraction,
    [Unsafe] on a replayed concrete trace — a starved solver can delay
    but never flip them. Raises [Failure] only if refinement runs out
    of candidates (cannot happen for well-formed systems: the full
    system is a valid refinement). *)

val decision_tree_candidates :
  Ts.t -> visible:int list -> samples:int -> seed:int -> int list
(** The decision-tree strategy's ranked hidden-latch candidates
    (exposed for tests and the refinement ablation). *)
