(** Bit-blasting of QF_BV into CNF.

    Every {!Bv.term} is lowered to an array of wires (LSB first) over a
    {!Tseitin} context; formulas lower to a single wire. Lowering is
    memoized so shared sub-DAGs are encoded once. This is the standard
    eager QF_BV decision procedure (as in STP or Boolector): adders are
    ripple-carry, multipliers shift-and-add, shifts barrel shifters, and
    division is defined algebraically with auxiliary quotient/remainder
    wires. *)

type t

val create : unit -> t
val context : t -> Tseitin.t

val term : t -> Bv.term -> Lit.t array
(** Lower a term to its wires, LSB first. *)

val formula : t -> Bv.formula -> Lit.t
val assert_formula : t -> Bv.formula -> unit
(** Assert a formula as clauses in the current scope (see
    {!assert_clauses}); [pop] retracts them. *)

val assert_clauses : t -> emit:(Lit.t list -> unit) -> Bv.formula -> unit
(** Clausify a formula's top-level structure and hand each clause to
    [emit]: a conjunction or negated disjunction splits, an equation
    becomes two clauses per bit over the term wires, a disjunction with
    one structured side guards that side's clauses with the other
    side's Tseitin literal, and any other formula is the unit clause of
    its Tseitin literal. Subformula and term encodings stay memoized. *)

val var_wires : t -> width:int -> string -> Lit.t array
(** The wires of a named bit-vector variable (created on first use). *)

val value_of : t -> string -> int option
(** Unsigned value of a named variable in the current SAT model; [None]
    if the variable was never mentioned. *)

val bool_value_of : t -> string -> bool option
val model_env : t -> Bv.env
(** Environment reading back the last model (unknown names read as 0). *)

val check : ?limits:Sat.limits -> ?assumptions:Lit.t list -> t -> Sat.result
(** Decide everything asserted so far on the underlying solver,
    optionally under per-call {!Sat.limits} (installed before the call
    and left in place) and assumption literals. [Unknown] means the
    limits ran out or the call was interrupted; the context stays
    usable. *)
