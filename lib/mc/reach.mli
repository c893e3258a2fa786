(** Explicit-state BFS reachability — the finite-state model checker that
    CEGAR invokes on abstractions.

    States are bit-packed into an [int], so systems are limited to 22
    latches. Each state is stepped only under the valuations of the
    inputs that some next-state function reads, at most 16 of them;
    every other input is held false. A localization turns each hidden
    latch into an input, but the visible latches read few of them, so a
    search over an abstraction costs its visible state space times the
    valuations of those few inputs, not of every hidden latch. *)

type answer =
  | Safe of { states_explored : int }
  | Cex of bool array list
      (** input valuations driving the system from the initial state into
          a bad state; the empty list means the initial state is bad *)

val check : ?max_states:int -> Ts.t -> answer
(** Breadth-first, so a counterexample is a shortest one. Each of its
    steps takes the smallest input valuation (input [i] as bit [i]) that
    leads from the recorded predecessor to the successor. Adds its successor evaluations to the
    [mc.reach_successors] counter. Raises [Invalid_argument] beyond the
    size limits or when [max_states] (default 2_000_000) is exceeded. *)

val replay : Ts.t -> bool array list -> bool
(** Does the input sequence actually reach a bad state? Used to validate
    counterexamples. *)
