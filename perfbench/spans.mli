(** Span records collected through [Obs.memory_sink], reduced to what the
    benchmark keeps: name, duration and self time. *)

type t = { name : string; dur : float; self : float }
(** Seconds. [self] is [dur] minus the time covered by the span's direct
    children. *)

val of_records : Obs.Json.t list -> t list
(** The span records among the given trace records, in completion order.
    Nesting is rebuilt per domain from completion order and depth: a
    span's children are the spans one level deeper that completed since
    the previous span at its own level. *)
