(** The proof/certificate plane: DRAT proof logging for the SAT core
    and per-verdict certificates over append-only spools.

    When the plane is enabled (CLI [--proof PREFIX]), every solver
    instance gets a {e spool}: a pair of append-only streams, one for
    the problem clauses the solver was given (DIMACS clause lines, no
    header) and one for the clauses it learned (DRAT: additions and
    [d]-prefixed deletions). Streams buffer in memory and touch the
    filesystem only when a buffer overflows or a certificate is issued,
    so the many short-lived scratch solvers (CNF-recipe recorders,
    probe contexts) never create files.

    A certificate is issued at each [Unsat] verdict: the spool is
    flushed, the verdict's unsat core is appended to the DRAT stream as
    a clause (the negation of the failed assumptions — itself a RUP
    consequence of everything before it, so later certificates over the
    same spool remain checkable), and one JSON line goes to
    [PREFIX.idx] recording byte offsets into both streams plus the core
    and its human-readable constraint names. A checker reconstructs the
    verdict's DIMACS/DRAT pair as: the CNF prefix plus one unit clause
    per core assumption; the DRAT prefix plus the empty clause.

    A spool belongs to one solver and only that solver appends to it.
    {!disable} must run once every solver of the plane has stopped. *)

type spool

val enable : prefix:string -> unit
(** Turn the plane on. Spool files are created as [PREFIX.s<id>.cnf] /
    [PREFIX.s<id>.drat] (lazily) and the index at [PREFIX.idx]
    (eagerly, truncating any stale one). Re-enabling with a new prefix
    finalizes the old plane first. *)

val disable : unit -> unit
(** Flush and close every materialized spool and the index; buffered
    data of spools that never certified is dropped (their files were
    never created). Idempotent. *)

val enabled : unit -> bool

val active_prefix : unit -> string option

val create_spool : unit -> spool option
(** A fresh spool under the active plane, [None] while disabled. *)

val log_original : spool -> Lit.t list -> unit
(** Append a problem clause (pre-normalization literals: the logged
    formula is what the caller asserted, not the solver's simplified
    form) to the CNF stream. *)

val log_learnt : spool -> Lit.t array -> unit
(** Append a learnt clause to the DRAT stream. *)

val log_learnt_unit : spool -> Lit.t -> unit

val log_delete : spool -> Lit.t array -> unit
(** Append a [d] line. *)

(** What {!certify} recorded, echoed to the telemetry plane. *)
type cert = {
  cert_id : int;
  cert_cnf : string;  (** CNF spool path *)
  cert_cnf_bytes : int;
  cert_drat : string;  (** DRAT spool path *)
  cert_drat_bytes : int;  (** prefix length {e including} the core clause *)
  cert_core_size : int;
}

val certify :
  spool ->
  core:Lit.t list ->
  names:string list ->
  maxvar:int ->
  loop:string ->
  cert option
(** Issue a certificate for an [Unsat] verdict just delivered by a
    solver writing to this spool: append the core clause, flush both
    streams to disk, and record an index line. [core] is the blamed
    subset of the assumption literals (as assumed); [names] its
    human-readable constraint names, positionally aligned. [None] when
    the plane was disabled after the spool was created. *)

val read_index : prefix:string -> (Obs.Json.t list, string) result
(** The certificate index as parsed JSON lines, oldest first. *)
