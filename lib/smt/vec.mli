(** Growable arrays specialised for the SAT solver's hot loops: [Ivec.t]
    is an unboxed growable array of [int]s, used for trails and watch
    lists. *)

module Ivec : sig
  type t = { mutable data : int array; mutable sz : int }
  (** Concrete so the SAT solver's propagation loop can index the
      backing array directly: the library is built with [-opaque] in
      the dev profile, which rules out cross-module inlining of {!get}.
      Slots [0 .. sz-1] are live; [data] is replaced when a push grows
      it. *)

  val create : unit -> t
  val size : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val push : t -> int -> unit
  val pop : t -> int
  val last : t -> int
  val clear : t -> unit
  val shrink : t -> int -> unit
  val to_list : t -> int list
end
