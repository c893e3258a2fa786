(** Running one job in process, and checking what it answered. *)

val job_deadline : float
(** Seconds every job may take, far above the slowest job measured
    (under a second). In-process jobs get it as a [Budget] deadline,
    served jobs as their submit [timeout]; a job that takes longer
    counts as failed. *)

val budget : unit -> Budget.t

type answer =
  | Program of Ogis.Straightline.t  (** a synthesized program *)
  | Verdict of { verdict : string; code : int }  (** a [Server.Jobs] verdict *)
  | Failed of string
      (** a typed error, an exhausted budget or an exception *)

val run : Jobstream.job -> answer
(** Through the public entry points: [Ogis.Hd_suite.run],
    [Ogis.Deobfuscate.run] and [Server.Jobs.run]. Never raises. *)

val check : Jobstream.job -> answer -> (unit, string) result
(** The job's answer against {!Check}; [Failed] is an error. *)
