(** Component libraries for oracle-guided synthesis (Section 4).

    A component is a base instruction the synthesized loop-free program is
    composed from: a bit-vector circuit with [arity] inputs and one
    output. Semantics are given symbolically (as a {!Smt.Bv} term
    builder), which serves both concrete evaluation and the SMT
    encoding. *)

type t = {
  name : string;
  arity : int;
  commutative : bool;
      (** the two operands of a binary component can be swapped without
          changing its output; the encoding then admits one order only *)
  semantics : Smt.Bv.term list -> Smt.Bv.term;
  print : string list -> string;
      (** render an application, e.g. [fun [a; b] -> a ^ " + " ^ b] *)
}

val apply : t -> Smt.Bv.term list -> Smt.Bv.term
(** [semantics] with an arity check. *)

(** {2 Stock components} (width-polymorphic) *)

val add : t
val sub : t
val and_ : t
val or_ : t
val xor : t
val not_ : t
val neg : t
val inc : t
val dec : t
val mul : t
val shl_const : int -> t
val lshr_const : int -> t
val const : width:int -> int -> t
val ule01 : t
(** 1 if first operand <= second (unsigned), else 0. *)

(** {2 Libraries used by the experiments} *)

val fig8_p1 : t list
(** Three XORs: the library for deobfuscating [interchangeObs]. *)

val fig8_p2 : t list
(** [shl 2], [shl 3], and two adders: the library for [multiply45Obs]. *)

val hackers_delight_basic : t list
(** A small Hacker's-Delight-style library: and, or, xor, not, neg, add,
    sub, inc, dec. *)
