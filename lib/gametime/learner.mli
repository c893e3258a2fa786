(** The inductive inference engine of GameTime.

    Learns the (w, pi) timing model from end-to-end measurements: basis
    paths are executed in a uniformly random order over a number of
    trials (the game-theoretic online setting of Seshia–Rakhlin), and the
    per-basis-path mean execution time is the learned estimate of that
    path's length under the weight-plus-perturbation model. *)

type model = {
  basis : Basis.basis_path list;
  means : float array;  (** mean measured cycles per basis path *)
  samples : int array;  (** measurements taken per basis path *)
  factored : Linalg.factored;
      (** [basis]'s vectors, factored once for {!predict} *)
}

val learn :
  ?trials:int ->
  ?seed:int ->
  platform:((string * int) list -> int) ->
  Basis.basis_path list ->
  model
(** [learn ~platform basis] runs [trials] end-to-end measurements
    (default: 10 per basis path), choosing which basis path to execute
    uniformly at random from [seed] each trial. An empty basis (a
    program with no feasible path) takes no measurement and gives a
    model that predicts no path. *)

val predict : model -> int array -> float option
(** Predicted execution time of a path given by its edge vector: express
    the vector in the basis and combine the learned lengths linearly.
    [None] if the vector is outside the span of the basis. *)
