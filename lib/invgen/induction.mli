(** SAT-based temporal induction — the deductive engine of the
    invariant-generation instance.

    [filter_inductive] runs the classic van-Eijk-style fixpoint: keep
    dropping candidates falsified in the base case or not preserved by
    one transition when all remaining candidates are assumed, until the
    surviving set is mutually inductive (and therefore holds in every
    reachable state).

    [prove_property] then performs k-induction on a property (default
    k = 1), optionally strengthened with proven invariants — the
    "strengthen the main safety property with auxiliary inductive
    invariants" workflow of Section 2.4. Deeper induction can substitute
    for strengthening: a property whose bad states have no length-k
    unreachable predecessor chain is k-inductive outright. *)

type verdict =
  | Proved
  | Cex_in_base
  | Unknown  (** the induction step failed; no conclusion *)
  | Aborted of Budget.reason
      (** a solver query was cut short (budget, deadline or injected
          fault); no conclusion either way *)

val filter_inductive :
  ?loop:Sciduction.Loop.t ->
  Aig.t ->
  Candidates.t list ->
  (Candidates.t list, Candidates.t list * Budget.reason) Budget.outcome
(** Each phase of the fixpoint keeps one incremental solver across
    all filtering passes — selector literals turn the shrinking
    survivor set into solver assumptions.

    When [loop] is given, each filtering pass is one iteration of that
    loop: it is reported as one, charged to the loop's budget, and its
    query is a metered call of the loop's deductive engine; dropped
    candidates are the loop's counterexamples. [Converged]
    survivors are mutually inductive; [Exhausted] carries the survivor
    set at the moment the budget ran out — candidates not yet {e
    refuted}, with no inductiveness claim. *)

val prove_property :
  ?k:int ->
  ?loop:Sciduction.Loop.t ->
  Aig.t ->
  bad:Aig.lit ->
  invariants:Candidates.t list ->
  verdict
(** With [?loop], the two SAT queries are metered calls of that loop's
    deductive engine; a cut-short query answers {!Aborted}. *)
