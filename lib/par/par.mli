(** Domain-based parallel execution for the verification server.

    A fixed-size pool of OCaml 5 domains behind a work queue, with
    futures, cooperative {!Cancel} tokens and exception funneling back
    to the submitter. The pool is the only place the repository spawns
    domains. Its one user is the daemon: each dispatcher runs a whole
    job as one pool task, and the loop inside the job stays sequential.

    Tasks must be self-contained: they may use the {!Obs} registry
    (domain-safe) and build their own solvers, but must not share
    mutable state with other tasks, and must not [await] from inside a
    task (workers never block on other tasks, which keeps the pool
    deadlock-free). *)

(** Cooperative cancellation tokens: one domain sets the token, the
    work it cancels polls it (the verification server passes
    [is_set] to a job's solvers as their [Smt.Sat] stop hook). *)
module Cancel : sig
  type t

  val create : unit -> t
  val set : t -> unit
  val is_set : t -> bool
end

module Pool : sig
  type t

  val create : ?jobs:int -> unit -> t
  (** A pool with [jobs] units of concurrency (default
      [Domain.recommended_domain_count ()]): [jobs - 1] worker domains
      plus the submitter, which executes queued tasks while it waits in
      [await]. [jobs = 1] spawns no domains at all — every task runs
      sequentially on the submitter, in submission order.

      If a [Domain.spawn] fails mid-creation (resource exhaustion, or
      an injected [Fault.Domain_spawn]), the workers that did start are
      torn down and joined, and the returned pool is sequential
      ([jobs = 1]) — degraded, never leaking domains. *)

  val jobs : t -> int

  val shutdown : t -> unit
  (** Drain nothing: signal the workers to exit after the tasks already
      running and join them. Idempotent. Submitting to a shut-down pool
      raises [Invalid_argument]. *)

  val with_pool : ?jobs:int -> (t -> 'a) -> 'a
  (** [create], run, [shutdown] (on exceptions too). *)
end

val parse_jobs : string -> (int, string) result
(** Parse a user-supplied jobs count: a positive integer (surrounding
    whitespace tolerated). The error is a human-readable reason —
    non-integer, or below 1 — without any prefix, so callers can
    attribute it to their own flag or variable name. *)

val env_jobs_exn : ?default:int -> unit -> int
(** Concurrency requested by the [SCIDUCTION_JOBS] environment variable,
    or [default] (itself defaulting to 1) when unset. A set-but-invalid
    value raises [Failure] (with the {!parse_jobs} reason) instead of
    being silently replaced by the default, so [serve] turns a typo into
    a diagnostic rather than a surprising single-domain server. *)

(** {1 Futures} *)

type 'a future

val submit : Pool.t -> (unit -> 'a) -> 'a future
(** Enqueue a task. Its exceptions are caught and re-raised by
    {!await}. *)

val await : Pool.t -> 'a future -> 'a
(** Block until the task settles, executing other queued tasks of the
    pool while waiting. Re-raises the task's exception. *)
