(** Independent verdict checks.

    Each check recomputes the expected answer by a route that shares no
    search with the engine under test: exhaustive evaluation for the
    synthesized programs, arithmetic on the system's parameters or
    explicit-state reachability for the model checkers, exhaustive
    measurement for timing, and the target's state count for L*. *)

val hd : name:string -> width:int -> Ogis.Straightline.t -> (unit, string) result
(** The program equals the benchmark's [reference] on every input. *)

val deob :
  program:[ `P1 | `P2 ] -> width:int -> Ogis.Straightline.t -> (unit, string) result
(** The clean program equals [Prog.Interp.run_fn] of
    [Prog.Benchmarks.interchange_w] / [multiply45_w] on every input. *)

val spec : Server.Jobs.spec -> verdict:string -> code:int -> (unit, string) result
(** The verdict text and exit code [Server.Jobs.run] should give:
    - [bmc]: a shift register is safe; a mod counter is safe iff
      [bad >= modulus], else its minimal counterexample has [bad] steps;
    - [cegar]: safe iff [bad >= modulus];
    - [invgen]: proved iff the bad output is unreachable by explicit-state
      search of the circuit;
    - [timing]: the WCET is the maximum of [Microarch.Platform.time] over
      all [2^bits] exponents, and the [tau] answer agrees with it;
    - [lstar]: the learned DFA has the target's state count. *)
