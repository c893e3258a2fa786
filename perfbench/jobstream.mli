(** Seeded job streams for the three benchmark workloads.

    A stream is a sequence of blocks. Every block of a workload holds the
    same strata (job kinds and size classes) in a seeded order, with
    seeded parameters inside each stratum, so a run that executes whole
    blocks measures the same mix whatever the seed: the seed changes the
    jobs, not the workload. *)

type job =
  | Hd of { name : string; width : int }
      (** a Hacker's-Delight benchmark of [Ogis.Hd_suite] *)
  | Deob of { program : [ `P1 | `P2 ]; width : int }
      (** Fig. 8 deobfuscation through [Ogis.Deobfuscate.run] *)
  | Spec of Server.Jobs.spec  (** a [Server.Jobs] spec *)

val kind : job -> string
(** The layer-qualified kind used as the job's span name and metric
    prefix: [ogis.hd], [ogis.deobfuscate], [mc.bmc], [mc.cegar],
    [invgen.job], [lstar.job] or [gametime.job]. *)

val describe : job -> string
(** A one-line rendering for failure messages. *)

val rng : seed:int -> string -> Random.State.t
(** The generator for a workload name and seed. *)

val synth_block : Random.State.t -> job array
(** Every [Hd_suite] benchmark at widths 4, 5 and 6, plus both Fig. 8
    programs at widths 4 and 5, shuffled. *)

val verify_block : Random.State.t -> job array
(** One small spec per stratum — safe and unsafe BMC (shift registers
    and mod counters), safe and unsafe CEGAR, invgen, timing and L* —
    shuffled. *)

val warmup : string -> job list
(** The set-up jobs of a workload, the same for every seed: the largest
    job of each kind the workload draws, so that set-up grows the heap to
    working size and fills the bit-blast recipe cache. For [serve] they
    go through the daemon and end with a repeat (a cache hit) and a
    deeper revisit (a warm-session hit). *)

(** {2 The served stream} *)

type role =
  | Cold  (** a spec not submitted before in this stream *)
  | Repeat  (** a spec submitted earlier: a result-cache hit *)
  | Warm
      (** an earlier cold BMC job at a larger [max_depth]: a cache miss
          that resumes the family's warm session *)

type item = {
  index : int;
  spec : Server.Jobs.spec;
  role : role;
  after : int option;
      (** the stream index this item repeats or extends; it is always at
          least [clients] positions earlier, and a client submits the
          item only once that job has completed, so the daemon's cache
          and warm-session hits are the same on every run *)
}

val role_name : role -> string

type serve_gen

val serve_gen :
  ?exclude:Server.Jobs.spec list -> seed:int -> clients:int -> unit -> serve_gen
(** [exclude]: specs already submitted to the daemon (the warm-up), never
    drawn as cold jobs. *)

val serve_block : int
(** Positions per block of the served stream. *)

val next : serve_gen -> item
(** The next item. Blocks of twenty positions hold four cold jobs (a
    shift register, a mod counter, a CEGAR and a timing job), two warm
    revisits and fourteen repeats, shuffled: the median job is a cache
    hit and the slowest tenth is cold. A repeat or revisit reaches
    back at most forty positions, well inside the daemon's result cache
    and warm store; a position whose role has no eligible earlier job
    yet (the first block) falls back to cold. *)
