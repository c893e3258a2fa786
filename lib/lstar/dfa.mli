(** Deterministic finite automata over integer alphabets.

    The substrate for the L*-based assume-guarantee instance of
    Section 2.4: components, properties and learned assumptions are all
    complete DFAs over a shared alphabet [0 .. alphabet-1]. *)

type word = int list

(** Hash tables keyed by words, hashing every letter. *)
module Wtbl : Hashtbl.S with type key = word

type t = {
  alphabet : int;
  num_states : int;
  start : int;
  accept : bool array;
  delta : int array array;  (** [delta.(state).(symbol)] *)
}

val make :
  alphabet:int -> start:int -> accept:bool array -> delta:int array array -> t
(** Checks completeness and range. *)

val run : t -> word -> int
val accepts : t -> word -> bool
val complement : t -> t

val product : t -> t -> acc:(bool -> bool -> bool) -> t
(** Synchronous product on the same alphabet; acceptance combined with
    [acc]. Only states reachable from the start pair are kept. *)

val inter : t -> t -> t
val union : t -> t -> t

val find_accepted : t -> word option
(** A shortest accepted word, or [None] if the language is empty. *)

val subset : t -> t -> (unit, word) result
(** [subset a b] checks L(a) ⊆ L(b); [Error w] is a witness in L(a)\L(b). *)

val equal : t -> t -> (unit, word) result
(** Language equality, with a counterexample on failure. *)

val minimize : t -> t
(** Moore's partition refinement on the reachable part. *)

val universal : alphabet:int -> t
val empty : alphabet:int -> t
val of_words : ?prefixes:bool -> alphabet:int -> word list -> t
(** The finite language consisting of exactly the given words, or with
    [~prefixes:true] (default [false]) of the words and all their
    prefixes. The DFA is their prefix tree plus a dead state: state [i]
    is the [i]th prefix in sorted order (the empty word is the start,
    0) and the dead state is numbered last. Linear in the total length
    of the words; raises [Invalid_argument] on a letter outside the
    alphabet. *)

val pp : Format.formatter -> t -> unit
