(** Candidate invariants from random simulation.

    The structure hypothesis of the invariant-generation instance
    (Section 2.4): invariants are constants, (possibly complemented)
    equivalences, or implications over netlist literals. The inductive
    engine is deliberately rudimentary, exactly as the paper describes
    ABC's: keep every candidate matching the hypothesis that is
    consistent with the simulation signatures. *)

type t =
  | Equiv of Aig.lit * Aig.lit
      (** covers constants too: [Equiv (l, Aig.false_)] *)
  | Implies of Aig.lit * Aig.lit

val holds_in : Aig.t -> latch_values:bool array -> input_values:bool array -> t -> bool

val from_simulation :
  ?frames:int ->
  ?seed:int ->
  ?implication_focus:Aig.lit list ->
  Aig.t ->
  t list
(** Constants and equivalences over all non-input nodes, plus
    implications among [implication_focus] literals and their negations
    (default: the latch literals). *)

val pp : Format.formatter -> t -> unit
