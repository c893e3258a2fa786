(** Control-flow graphs of loop-free programs.

    Nodes are integers; every CFG has a unique entry and exit. Edges carry
    the program semantics: an assignment, a guard (branch condition or
    assumption), or a skip (join) edge. The edge set is the coordinate
    space for GameTime's path vectors. *)

type label =
  | Assign of string * Smt.Bv.term
  | Guard of Smt.Bv.formula
  | Skip

type edge = { id : int; src : int; dst : int; label : label }

type t = {
  nnodes : int;
  entry : int;
  exit_ : int;
  edges : edge array; (** indexed by [id] *)
  succ : edge list array; (** outgoing edges per node *)
  live : bool array;
      (** indexed by [id]: the edge lies on an entry→exit path that
          constant propagation does not rule out *)
}

val of_program : Lang.t -> t
(** Raises [Invalid_argument] if the program still contains loops.

    Nodes are numbered so that every edge goes from a lower to a higher
    node. [live] comes from one forward constant-propagation pass under
    {!Symexec}'s store (inputs symbolic, unassigned non-inputs 0, values
    folded by [Smt.Bv]'s smart constructors): an edge is dead when its
    source is unreachable or its guard folds to false under the
    constants every path into the source agrees on. A backward pass then
    drops the edges that no longer reach the exit. Every path through a
    dead edge is infeasible, so the live edges carry every feasible
    path. *)

val num_edges : t -> int
val pp : Format.formatter -> t -> unit
