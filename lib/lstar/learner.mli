(** Angluin's L* algorithm.

    The inductive inference engine of the assume-guarantee instance
    (Section 2.4): learns a DFA from a membership oracle and an
    equivalence oracle. The observation table is kept closed and
    consistent; counterexamples are handled by adding all their prefixes
    to the row set (Angluin's original policy). Rows are cached per word
    and extended as experiments join. Unclosed rows and inconsistent
    pairs are still taken in the textbook pairwise order (sorted S, then
    letters, then sorted E), so the queries asked and the hypotheses
    built are exactly those of the pairwise search. *)

type stats = {
  membership_queries : int;
  equivalence_queries : int;
  rounds : int;
}

(** What an exhausted run still holds: the last hypothesis submitted to
    the equivalence oracle ([None] if not even one round finished) —
    consistent with every membership answer seen, but {e not} known
    equivalent to the target. *)
type partial = {
  hypothesis : Dfa.t option;
  stats : stats;
  reason : Budget.reason;
}

val learn :
  alphabet:int ->
  membership:(Dfa.word -> bool) ->
  equivalence:(Dfa.t -> Dfa.word option) ->
  ?max_rounds:int ->
  ?budget:Budget.t ->
  unit ->
  (Dfa.t * stats, partial) Budget.outcome
(** The returned DFA is the hypothesis the equivalence oracle accepted.
    [max_rounds] (default 200) and [?budget]'s iteration cap both bound
    the learning rounds; either running out — or the budget's deadline
    passing — returns [Exhausted] (L* issues no solver queries, so the
    conflict pool never drains here). *)

val learn_exact :
  ?budget:Budget.t ->
  target:Dfa.t ->
  unit ->
  (Dfa.t * stats, partial) Budget.outcome
(** Learn a known target by answering both oracle types from it; for
    testing, and for the ablation that counts queries. Always converges
    when unbudgeted (L* terminates on exact oracles). *)
