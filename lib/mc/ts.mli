(** Finite-state boolean transition systems.

    A system has state variables (latches) and free inputs; each latch
    has a next-state function given as a boolean expression over the
    current latches and inputs, plus a [bad]-state predicate (the negated
    safety property). This is the system class the CEGAR instance of
    Section 2.4 model-checks. *)

type expr =
  | T
  | F
  | V of int  (** current value of latch [i] *)
  | In of int  (** input [i] *)
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr

type t = {
  name : string;
  num_latches : int;
  num_inputs : int;
  init : bool array;  (** single initial state *)
  next : expr array;  (** per latch *)
  bad : expr;  (** a pure state predicate: must not mention inputs *)
}

val make :
  name:string ->
  num_latches:int ->
  num_inputs:int ->
  init:bool array ->
  next:expr array ->
  bad:expr ->
  t
(** Checks arity and that variable references are in range; rejects a
    [bad] predicate that mentions inputs. *)

val eval : expr -> state:bool array -> input:bool array -> bool
val step : t -> state:bool array -> input:bool array -> bool array
val is_bad : t -> bool array -> bool

val support : t -> expr list -> int list * int list
(** The latches and the inputs that the expressions (over [t]'s latches
    and inputs) mention, each in increasing order. *)

val pp_expr : Format.formatter -> expr -> unit
