(** Feasible basis path extraction (Fig. 5 of the paper, second box).

    Enumerates structural paths of the unrolled CFG and greedily keeps
    those that are (a) linearly independent of the paths kept so far and
    (b) feasible, as certified by the SMT-based deductive engine, which
    also produces the test case driving each kept path. The greedy rule
    over the linear matroid yields a maximal independent subset of the
    feasible path vectors. *)

type basis_path = {
  path : Prog.Paths.path;
  vector : int array;
  test : (string * int) list;  (** input valuation driving this path *)
}

(** What an exhausted extraction still holds: every path in [found] is
    feasibility-certified with a driving test case and the set is
    linearly independent — it just may not span the full rank bound. *)
type partial = {
  found : basis_path list;
  examined : int;
  reason : Budget.reason;
}

val extract :
  ?max_paths:int ->
  ?assuming:Smt.Bv.formula ->
  ?budget:Budget.t ->
  Prog.Lang.t ->
  Prog.Cfg.t ->
  (basis_path list, partial) Budget.outcome
(** [extract unrolled cfg] returns the feasible basis paths. It walks
    the live paths ({!Prog.Paths.enumerate}) and stops once the span
    reaches {!rank_bound}: no later path can then be independent, so the
    basis is the one a walk of every structural path would keep.
    [max_paths] bounds the paths examined (default 100_000). The
    program must be the unrolled one the CFG was built from. [assuming]
    constrains the generated test cases (see {!Prog.Testgen.feasible}).

    [?budget] (default unlimited) meters the loop: iterations count
    examined paths, the conflict pool is drained by the
    feasibility queries, and a query abandoned mid-extraction stops it.
    [max_paths] running out still counts as convergence (it is the
    algorithm's own enumeration cap, not a resource budget). A converged
    run's [loop_finished] names why it stopped as its [outcome]:
    ["rank_bound"], ["enumerated"] or ["max_paths"]. *)

val rank_bound : Prog.Cfg.t -> int
(** The dimension [m - n + 2] of the flow space of the live subgraph
    ([m] live edges, [n] nodes they touch; 0 without live edges), which
    holds every feasible path vector. *)
