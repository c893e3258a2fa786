(** Exact linear algebra over the rationals.

    Two operations drive the basis-path machinery (Section 3.2 of the
    paper): an incremental independence test to grow a maximal set of
    linearly independent feasible path vectors, and an exact solve to
    express any path vector as a linear combination of the basis. *)

module Q = Rational

type span
(** A growing set of independent vectors, kept in row-echelon form. *)

val empty_span : dim:int -> span
val rank : span -> int

val add_if_independent : span -> int array -> bool
(** [add_if_independent s v] adds [v] to the span if it is not already a
    linear combination of the vectors added so far; returns whether it
    was added. *)

val in_span : span -> int array -> bool

type factored
(** A basis after forward elimination: the eliminated coefficients plus
    the row swaps and elimination factors that produced them. *)

val factor : int array list -> factored
(** [factor basis] eliminates the matrix whose columns are [basis]
    once, so that each {!solve} against it costs one replay of the
    recorded steps and a back substitution. *)

val solve : factored -> int array -> Q.t array option
(** [solve (factor basis) target] finds coefficients [a] with
    [sum_i a.(i) * basis_i = target], or [None] if [target] is not in the
    span of [basis]. Dependent columns get coefficient zero. *)

val dot_float : Q.t array -> float array -> float
