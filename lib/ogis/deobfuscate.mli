(** Malware deobfuscation as program re-synthesis (Section 4.1).

    The obfuscated program is treated purely as an I/O oracle — the
    synthesizer never inspects its syntax, so the cost of synthesis
    depends on the program's intrinsic functionality, not on the
    obfuscations applied to it. *)

val oracle_of_program : Prog.Lang.t -> Synth.oracle
(** Wrap an interpreter run as an I/O oracle; inputs/outputs follow the
    program's declared input/output order. *)

type result = {
  clean : Straightline.t;
  stats : Synth.stats;
  seconds : float;
}

(** Why deobfuscation produced no clean program: the library cannot
    express the oracle at all, or the synthesis budget ran out first
    (the partial carries the best candidate and the examples gathered,
    a sound warm start for a retry). *)
type failure =
  | Unrealizable of Synth.stats
  | Exhausted of Synth.partial

val run :
  ?max_iterations:int ->
  ?initial_inputs:int list list ->
  ?pool:Par.Pool.t ->
  ?budget:Budget.t ->
  library:Component.t list ->
  Prog.Lang.t ->
  (result, failure) Stdlib.result
(** Deobfuscate a program against a component library. [Error] carries
    the non-success outcome. [initial_inputs], [pool] and [budget] are
    forwarded to {!Synth.synthesize}. *)
