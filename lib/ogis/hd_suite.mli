(** A Hacker's-Delight-style benchmark suite.

    The ICSE 2010 paper behind Section 4 evaluates oracle-guided
    synthesis on 25 bit-manipulation programs from Hacker's Delight;
    this module reproduces a representative subset. Each benchmark
    packages the component library (the structure hypothesis), a
    reference implementation serving as the I/O oracle, and the formal
    specification used to verify the synthesized program. *)

type benchmark = {
  name : string;
  description : string;
  library : width:int -> Component.t list;
  arity : int;
  reference : width:int -> int list -> int list;  (** the I/O oracle *)
  spec : width:int -> Smt.Bv.term list -> Smt.Bv.term list;
}

val all : benchmark list

val find : string -> benchmark
(** Raises [Not_found]. *)

type outcome = {
  benchmark : benchmark;
  result :
    (Straightline.t * Synth.stats, (Synth.outcome, Synth.partial) Budget.outcome)
    result;
      (** [Error] carries the full non-success outcome (unrealizable, or
          exhausted with its partial) *)
  verified : bool;
  seconds : float;
}

val run : ?width:int -> ?budget:Budget.t -> benchmark -> outcome
(** Synthesize at the given width (default 8) and verify the result
    against [spec] with an SMT equivalence query. [?budget] (default
    unlimited) is forwarded to [Synth.synthesize]; an exhausted run is
    an [Error (Exhausted _)] result and is not verified. *)
