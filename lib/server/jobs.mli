(** Named verification jobs over the six sciduction loops.

    A {!spec} is a serializable description of one problem — the same
    information the CLI flags carry — and {!run} is the single runner
    both front-ends share: the CLI's loop subcommands and the daemon's
    dispatchers call it with identical arguments, so a served verdict
    is bit-identical to the one-shot CLI verdict by construction.

    Specs are content-addressed: {!key} digests the canonical problem
    content plus the query bounds (the result-cache key) and {!family}
    digests the content alone (the warm-session key), so syntactically
    different submissions of the same system share cache entries and
    warm sessions. *)

type bmc_system = {
  shift : int option;
      (** [Some len]: the (safe) [len]-stage shift register; [None]:
          the mod counter below *)
  junk : int;
  bits : int;
  modulus : int;
  bad_value : int;
}

type spec =
  | Deobfuscate of { program : [ `P1 | `P2 ]; width : int }
  | Timing of { source : string option; bits : int; tau : int option }
      (** [source]: concrete program syntax to analyze ([None] = the
          built-in modexp with base pinned to 123); [bits] is the
          unrolling bound *)
  | Cegar of { junk : int; bits : int; modulus : int; bad_value : int }
  | Bmc of { system : bmc_system; max_depth : int }
  | Invgen of { circuit : [ `Ring | `Mod5 | `Twin | `Stuck ]; n : int }
  | Lstar of { states : int }

(** A finished job: the exact verdict text the CLI prints on stdout,
    its exit code, and whether the result may enter the cache
    ([cacheable] is false for EXHAUSTED partials, whose content depends
    on the budget that cut them short). *)
type outcome = { verdict : string; code : int; cacheable : bool }

val kind : spec -> string

val to_json : spec -> Obs.Json.t
val of_json : Obs.Json.t -> (spec, string) result
(** Field defaults mirror the CLI flag defaults, so [{"kind":"bmc"}]
    denotes the same job as a bare [sciduction_cli bmc]. *)

val key : spec -> string
(** Content digest including query bounds: the result-cache key. *)

val family : spec -> string
(** Content digest excluding bounds: the warm-session key. *)

val run : ?warm:Warm.t -> ?budget:Budget.t -> spec -> outcome
(** Execute the job, sequentially: the daemon runs whole jobs
    concurrently instead, which keeps every verdict text
    width-independent. [?warm] (daemon only) resumes BMC sweeps from
    the family's warm session at the proved-prefix frontier. Raises
    [Failure] on an unrunnable spec (e.g. a timing source that does not
    parse). *)
