(** End-to-end GameTime driver (Section 3 of the paper).

    Pipeline of Fig. 5: unroll the program, build the CFG, extract
    feasible basis paths with SMT-generated test cases, measure them
    end-to-end on the platform under the game-theoretic learner, and use
    the learned model to predict per-path timing, the full execution-time
    distribution, and the worst case. *)

type t = {
  program : Prog.Lang.t;  (** original program *)
  unrolled : Prog.Lang.t;
  cfg : Prog.Cfg.t;
  basis : Basis.basis_path list;
  model : Learner.model;
  pin : (string * int) list;  (** inputs held fixed during analysis *)
}

(** What an exhausted analysis still holds: a driver over the truncated
    basis — its predictions are genuine measurements over genuinely
    feasible paths, but the basis may not span the path space, so
    predictions can be unavailable ([predict_path] = [None]) for more
    paths than usual. [None] when not even one basis path was found. *)
type partial = {
  analysis : t option;
  reason : Budget.reason;
}

val analyze :
  ?bound:int ->
  ?trials:int ->
  ?seed:int ->
  ?pin:(string * int) list ->
  ?budget:Budget.t ->
  platform:((string * int) list -> int) ->
  Prog.Lang.t ->
  (t, partial) Budget.outcome
(** [bound] is the loop-unrolling bound (default 8). [pin] fixes some
    inputs to constants in every generated test case: problem <TA> is
    posed for a fixed starting environment state, and pinning the
    non-path-relevant inputs (e.g. the modexp base) fixes the data state
    the same way the paper's Fig. 6 experiment does.

    [?budget] (default unlimited) meters basis extraction (see
    {!Basis.extract}); platform measurement of whatever basis was found
    is never cut short, so an [Exhausted] partial's model is still
    internally consistent.

    A program with no feasible path within [bound] (a loop that needs
    more iterations than the unrolling keeps) converges on an empty
    basis; its model predicts no path, so {!wcet_opt} answers [None]. *)

val predict_path : t -> Prog.Paths.path -> float option

val refine_with_spanner :
  ?trials:int ->
  ?seed:int ->
  ?c:float ->
  platform:((string * int) list -> int) ->
  t ->
  t
(** Replace the greedy basis with a [c]-approximate barycentric spanner
    of the feasible path set (Seshia–Rakhlin's basis choice) and relearn
    the timing model. Enumerates all feasible paths — use on kernels
    where that is tractable. *)

val feasible_paths : t -> (Prog.Paths.path * (string * int) list) list
(** Every feasible path with a driving test case. Exponential in program
    branching; intended for evaluation on small kernels as in Fig. 6. *)

val predictions :
  t -> (Prog.Paths.path * (string * int) list * float) list
(** Every feasible path with its test case and predicted cycles, in
    enumeration order (paths without a prediction are left out). *)

type wcet = {
  predicted_cycles : float;
  test : (string * int) list;
  measured_cycles : int;  (** the prediction's test case, re-measured *)
}

val wcet_opt : t -> platform:((string * int) list -> int) -> wcet option
(** Predict the longest path, then execute its test case (the final step
    of GameTime's answer to problem <TA>). The path is the first of
    {!predictions} with the greatest prediction, found lazily: every
    live path is predicted, and the feasibility oracle is asked in
    descending order of prediction until it answers with a test case.
    [None] when no feasible path has a prediction (e.g. a truncated
    basis from an exhausted {!analyze}). *)

val wcet : t -> platform:((string * int) list -> int) -> wcet
(** Like {!wcet_opt} but raises [Invalid_argument] when no prediction
    exists. *)

val answer_ta :
  t -> platform:((string * int) list -> int) -> tau:int ->
  [ `Yes | `No of (string * int) list ]
(** Problem <TA>: is the execution time always at most [tau]? A [`No]
    answer carries the witness test case. *)

(** Empirical quality of the (w, pi) structure hypothesis (Section 3.2):
    [mu_hat] estimates the perturbation bound mu_max as the largest
    |measured - predicted| over the feasible paths; [rho_hat] estimates
    the margin rho by which the predicted worst-case path leads the
    runner-up. The probabilistic soundness of Section 3.3 needs small mu
    relative to rho; [margin_ok] is the heuristic check
    [rho_hat > mu_hat] — with a larger perturbation the top-2 ordering
    is in doubt. *)
type hypothesis_quality = {
  mu_hat : float;
  rho_hat : float;
  margin_ok : bool;
  paths_checked : int;
}

val hypothesis_quality :
  t -> platform:((string * int) list -> int) -> hypothesis_quality
(** Measures every feasible path once — exponential in branching, like
    {!feasible_paths}. *)

type distribution = (int * int) list
(** Histogram: (cycle count, number of paths). *)

val predicted_distribution : t -> distribution
val measured_distribution :
  t -> platform:((string * int) list -> int) -> distribution
