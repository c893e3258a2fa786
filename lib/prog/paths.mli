(** Source-to-sink paths of a CFG DAG.

    A path is a list of edge ids from entry to exit; its {e vector} is the
    0/1 edge-indicator vector in R^m used by GameTime's basis-path
    machinery. *)

type path = int list

val enumerate : Cfg.t -> path Seq.t
(** The entry→exit paths over live edges ({!Cfg.t.live}), lazily, in DFS
    order. Every feasible path is among them, in the order a walk of all
    structural paths would meet it; a path left out is infeasible. *)

val count : Cfg.t -> int
(** Number of live paths (by dynamic programming, no enumeration). *)

val vector : Cfg.t -> path -> int array
val of_vector : Cfg.t -> int array -> path option
(** Reconstruct a path from an indicator vector, if one exists. *)

val pp : Format.formatter -> path -> unit
