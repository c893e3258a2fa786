(** Mining environment assumptions from traces (the Section 6 direction;
    Li–Dworkin–Seshia, MEMOCODE 2011).

    Instead of learning an assumption with L* (which needs an equivalence
    oracle), mine one from finitely many {e observed} traces of the
    environment: build the prefix-tree acceptor of all trace prefixes,
    then generalize by k-tails state merging — states are merged when
    the sets of continuations of length at most [k] they allow coincide.
    Smaller [k] merges more aggressively (k = 0 collapses everything
    that is live); the mined DFA always accepts every prefix of every
    given trace, and its language is prefix-closed, as environment
    assumptions should be. *)

val prefix_tree : alphabet:int -> Dfa.word list -> Dfa.t
(** Acceptor of exactly the prefixes of the given traces (and of the
    empty word, even for no traces): {!Dfa.of_words} with
    [~prefixes:true]. *)

val mine : alphabet:int -> ?k:int -> Dfa.word list -> Dfa.t
(** Prefix tree generalized by k-tails merging (default [k = 2]),
    minimized. *)

val consistent : Dfa.t -> Dfa.word list -> bool
(** Does the automaton accept every prefix of every trace? *)

val is_prefix_closed : Dfa.t -> bool
(** No accepting state is reachable from a rejecting one. *)
