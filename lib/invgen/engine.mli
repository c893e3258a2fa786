(** The end-to-end invariant generation pipeline (Section 2.4):
    hypothesize a structural form, prune candidates with simulation,
    prove the survivors by mutual induction, then use them to strengthen
    a safety property. *)

type report = {
  candidates : int;  (** matched the structure hypothesis + simulation *)
  proven : Candidates.t list;  (** the mutually inductive subset *)
  verdict : Induction.verdict;  (** for the property, with strengthening *)
  verdict_unaided : Induction.verdict;  (** plain induction, no invariants *)
}

(** What an exhausted run still holds. When [filtered] is true the
    fixpoint finished and [survivors] are genuinely mutually inductive
    (only the final property check was cut short); when false they are
    merely the candidates not yet refuted when the budget ran out. *)
type partial = {
  p_candidates : int;
  survivors : Candidates.t list;
  filtered : bool;
  reason : Budget.reason;
}

val run :
  ?frames:int ->
  ?seed:int ->
  ?budget:Budget.t ->
  Aig.t ->
  bad:Aig.lit ->
  (report, partial) Budget.outcome
(** [?budget] (default unlimited) meters the pipeline: iterations count
    fixpoint filtering passes, and every SAT query drains the shared
    conflict pool. A [Converged] report is exact; the unaided
    verdict may read [Aborted] when the pool ran dry after the main
    verdict was already decided. *)

(** {2 Example circuits} *)

val ring_counter : n:int -> Aig.t * Aig.lit
(** One-hot rotating token over [n] latches; [bad] = two adjacent latches
    hot. *)

val counter_mod5 : unit -> Aig.t * Aig.lit
(** A 3-bit counter wrapping at 4; [bad] = count 7. The property is NOT
    inductive by itself (the unreachable state 6 steps to 7), so plain
    1-induction fails; the implications b2 => !b1 and b2 => !b0 found by
    simulation make it provable — the paper's motivating use of auxiliary
    invariants. *)

val twin_registers : len:int -> Aig.t * Aig.lit
(** Two shift registers fed by the same input; [bad] = outputs differ.
    Simulation discovers the stage-wise equivalences that prove it. *)

val stuck_bit : Aig.t * Aig.lit
(** A latch that can only ever stay 0, guarding a "bad" output. *)
