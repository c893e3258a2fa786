(** The oracle-guided synthesis loop (Section 4.2 of the paper).

    Sciduction instance: the structure hypothesis H is "loop-free
    compositions of the component library"; the inductive engine I learns
    from distinguishing inputs; the deductive engine D is the SMT solver
    answering the candidate and distinguishing-input queries. The
    specification is only an I/O oracle. *)

type oracle = int list -> int list

type stats = {
  iterations : int;  (** distinguishing-input rounds *)
  oracle_queries : int;
  examples : (int list * int list) list;  (** final example set *)
}

type outcome =
  | Synthesized of Straightline.t * stats
  | Unrealizable of stats
      (** no library program is consistent with the I/O examples: the
          structure hypothesis is invalid and infeasibility is reported
          (left branch of Fig. 7) *)

(** What an exhausted run still holds: [best] is the last candidate
    consistent with every example seen (its uniqueness proof did not
    finish — it may still disagree with the oracle on unseen inputs),
    and [stats.examples] the oracle answers gathered, a sound warm-start
    via [?initial_inputs]. *)
type partial = {
  best : Straightline.t option;
  stats : stats;
  reason : Budget.reason;
}

val synthesize :
  ?max_iterations:int ->
  ?initial_inputs:int list list ->
  ?budget:Budget.t ->
  Encode.spec ->
  oracle ->
  (outcome, partial) Budget.outcome
(** [synthesize spec oracle] runs the loop: synthesize a candidate
    consistent with the examples seen so far, ask for a distinguishing
    input, query the oracle on it, repeat. Starts from four fixed
    probe inputs unless [initial_inputs] is given. One pair of incremental
    solvers persists across iterations via {!Encode.session}.

    [?budget] (default unlimited) meters the loop: iterations count
    distinguishing rounds (also capped by [max_iterations], which now
    exhausts instead of answering a dedicated constructor), the conflict
    pool is drained by both solvers, and a query abandoned mid-loop
    exhausts with the corresponding reason. A [Converged] verdict is
    exact; [Exhausted] makes no claim beyond its [partial]. *)

val verify_against :
  Encode.spec ->
  Straightline.t ->
  spec_fn:(Smt.Bv.term list -> Smt.Bv.term list) ->
  (unit, int list) result
(** Structure-hypothesis testing (Section 6 of the paper): check the
    synthesized program equivalent to a formal specification with one
    SMT query. [Error cex] returns a counterexample input. *)
