(** Cross-context CNF recipe cache.

    Bit-blasting the expensive bit-vector operators (multipliers,
    dividers, barrel shifters) produces the {e same} clause skeleton
    every time for a given operator and width — only the variable
    numbers differ. A {!recipe} captures that skeleton once, in a
    throwaway context with canonical numbering, and {!replay} splices
    it into any other context by substituting the actual input wires
    and a fresh block of auxiliary variables. The global table is
    shared across every solver, session and domain in the process, so
    the jobs a server runs pay the encoding cost of an operator once
    per process instead of once per context.

    Soundness: a recipe's clauses are the (pre-normalization) output of
    the real encoder over unconstrained fresh inputs — the fully
    general circuit, with no cross-input constant folding — so the
    substituted instance is definitionally equivalent to re-running the
    encoder. Replayed clauses are added permanently (gate definitions
    must survive scope pops) and re-normalized by the receiving solver.
    Callers should bypass the cache when an input wire is constant:
    replaying the general circuit is correct but forfeits the eager
    constant folding a direct encoding would enjoy.

    Determinism: recording is deterministic (fresh scratch context,
    canonical numbering), and when several domains race to record one
    key the first install wins — but every candidate is identical, so
    the outcome never depends on the interleaving.

    Telemetry note: a recipe's gates count toward [tseitin.gates] once,
    at record time; replays add clauses directly to the solver. The
    caller-facing hit/miss traffic is counted by [Bitblast] under
    [bitblast.shared_hits] / [bitblast.shared_misses]. *)

type recipe

val record :
  n_inputs:int -> (Tseitin.t -> Lit.t array -> Lit.t array array) -> recipe
(** [record ~n_inputs build] runs [build] in a fresh scratch context on
    [n_inputs] fresh input wires and captures every permanent clause it
    emits (via the context's tap) together with its output wires.
    [build] must be a pure encoder: everything it does besides
    allocating fresh wires and emitting permanent clauses is lost. *)

val replay : recipe -> Tseitin.t -> Lit.t array -> Lit.t array array
(** [replay r ctx inputs] splices the recipe into [ctx]: allocates
    fresh auxiliary variables, maps the canonical inputs to [inputs]
    (sign-composed), adds every clause permanently, and returns the
    mapped output wires. Raises [Invalid_argument] when [inputs]
    doesn't match the recipe's arity. *)

val find : key:string -> recipe option
(** Look the key up in the process-global sharded table. *)

val install : key:string -> recipe -> recipe
(** Publish a recipe under the key and return the table's winner: the
    argument, or a recipe another domain installed first. *)

val clear : unit -> unit
(** Empty the global table (tests and benchmarks isolating runs). *)

val cached_recipes : unit -> int
(** Number of recipes currently in the global table. *)

val n_inputs : recipe -> int

val n_aux : recipe -> int
(** Auxiliary variables a replay will allocate. *)

val n_clauses : recipe -> int
