(** The location-variable SMT encoding of component-based synthesis
    (Jha, Gulwani, Seshia, Tiwari — ICSE 2010, as summarized in Section 4
    of the paper).

    Each library component is used exactly once; integer-valued location
    variables choose where each component sits in the straight-line
    program and where its inputs come from. Well-formedness constrains
    locations (distinct outputs, acyclicity); connection constraints tie
    values at equal locations together per I/O example.

    Two queries are exposed, matching the two roles of the deductive
    engine in Section 4.2: synthesizing a candidate consistent with the
    examples, and finding a distinguishing input separating two
    non-equivalent consistent candidates. *)

type spec = {
  width : int;  (** word width of the synthesized program *)
  ninputs : int;
  noutputs : int;
  library : Component.t list;
}

val loc_width : spec -> int
(** Bits used for location variables. *)

val wfp : spec -> Smt.Bv.formula list
(** The constraints on the location variables alone: output locations in
    range and distinct (identical components in increasing order),
    acyclic inputs, and the two operands of each commutative component
    in nondecreasing order. They admit at least one wiring of every
    program function the library can compute, and fewer wirings in all
    than the unordered encoding. *)

val location_env : lo:int list -> li:int list list -> lout:int list -> Smt.Bv.env
(** The assignment of a wiring to the location variables: [lo] the
    output location of each component, [li] its input locations, [lout]
    each program output's location, all in library order. *)

val synthesize_candidate :
  ?limits:Smt.Sat.limits ->
  spec ->
  examples:(int list * int list) list ->
  [ `Candidate of Straightline.t
  | `Unrealizable
  | `Unknown of Smt.Sat.reason ]
(** A program over the library consistent with every example;
    [`Unrealizable] if no such program exists (the "infeasibility
    reported" branch of Fig. 7); [`Unknown] if the (optionally bounded)
    solver abandoned the query. *)

val distinguishing_input :
  ?limits:Smt.Sat.limits ->
  spec ->
  examples:(int list * int list) list ->
  Straightline.t ->
  [ `Input of int list | `Unique | `Unknown of Smt.Sat.reason ]
(** An input on which some other library program — also consistent with
    all examples — disagrees with the candidate; [`Unique] means the
    candidate is semantically unique and synthesis can stop. *)

(** {2 Persistent sessions}

    [synthesize_candidate] and [distinguishing_input] rebuild both
    encodings from scratch on every call. A {!session} instead keeps two
    incremental solvers alive across the whole OGIS loop — one for the
    candidate query, one for the distinguishing-input query — so each
    iteration only asserts the constraints of the {e new} example, and
    clauses learned in earlier iterations keep pruning the search. *)

type session

val new_session : spec -> session
(** Fresh session with no examples: well-formedness asserted in both
    solvers, the symbolic distinguishing example asserted in the
    verification solver. *)

val add_example : session -> int list * int list -> unit
(** Assert one concrete I/O example in both solvers (permanently — the
    example set only grows). *)

val next_candidate :
  ?limits:Smt.Sat.limits ->
  session ->
  [ `Candidate of Straightline.t
  | `Unrealizable
  | `Unknown of Smt.Sat.reason ]
(** Like {!synthesize_candidate} over all examples added so far.
    [?limits] bounds this query (installed on the session's synthesis
    solver; an abandoned query leaves the session usable). *)

val distinguishing :
  ?limits:Smt.Sat.limits ->
  session ->
  Straightline.t ->
  [ `Input of int list | `Unique | `Unknown of Smt.Sat.reason ]
(** Like {!distinguishing_input} over all examples added so far; the
    candidate-specific constraint is asserted in a scope and retracted
    before returning. *)

val session_conflicts : session -> int
(** Cumulative conflicts across both of the session's solvers; callers
    metering a conflict pool charge per-query deltas of this. *)
