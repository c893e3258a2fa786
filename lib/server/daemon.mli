(** The long-lived verification server.

    Listens on a Unix-domain socket, speaks the JSONL {!Protocol},
    multiplexes named jobs onto the {!Par} domain pool under per-job
    {!Budget} quotas, and reuses work across requests through the
    content-addressed result {!Cache} and the {!Warm} session store.
    Scheduling is FIFO with aging (effective priority
    [priority - age/aging_s], lowest first); cancellation — explicit
    [cancel], client disconnect, or shutdown — is cooperative through
    [Par.Cancel] tokens installed as each job's budget cancel hook, so
    even an in-flight solver call stops within a poll interval.

    {2 Durability}

    With [?journal], every accepted submission is written to the
    {!Journal} write-ahead log and fsync'd {e before} its ack; terminal
    answers append [done]/[cancelled] records. {!start} replays the log
    after a crash: cacheable verdicts repopulate the {!Cache}, and jobs
    that were acked but never finished are re-enqueued as ownerless
    work — their verdicts land in the cache, so a client that
    reconnects and resubmits the same spec is answered from it. A
    [kill -9] therefore loses no acked work and no cached verdict.

    {2 Overload and degradation}

    Admission is bounded by [?queue_limit] (the high watermark; the low
    watermark is half). At the high watermark submissions are shed with
    a typed [overloaded] error carrying [retry_after_s]. Shedding that
    persists past [?degrade_after_s], or dispatchers dying faster than
    one restart budget per death window, flips the daemon into degraded
    mode: cache hits and warm-family BMC jobs are still served, all
    other fresh work is shed. Degraded mode exits when the queue drains
    to the low watermark and dispatcher deaths have quieted. Sheds
    count on [server.shed_total] (Prometheus
    [sciduction_server_shed_total]); the mode is the [server.degraded]
    gauge and both appear in the [stats] reply.

    {2 Supervision}

    Each dispatcher runs under a supervisor that detects its death
    (real, or injected via the [Serve_dispatch] fault site), requeues
    the victim's job — at most [?restart_budget] times per job, then a
    typed [internal_error] to that client only — and re-arms the slot
    with a fresh thread, emitting [job_requeued] trace events. A reader
    death ([Serve_reader]) drops exactly that client; a journal-append
    death ([Journal_write]) refuses exactly that submission. One
    poisoned job can never wedge the daemon.

    Registry series (scraped via [--stats-socket]):
    [server.requests{,_done,_cancelled,_faulted}] counters,
    [server.request_ms] latency histogram (exported to Prometheus as
    [sciduction_request_seconds]), [server.requests_inflight] and
    [server.queue_depth] gauges, [server.shed_total],
    [server.jobs_requeued], [server.jobs_given_up],
    [server.dispatcher_restarts], [server.reader_crashes],
    [server.degraded], the [server.journal_*] series, plus the cache
    and warm-store hit/miss/eviction counters. *)

type t

val start :
  ?pool:Par.Pool.t ->
  ?dispatchers:int ->
  ?cache_capacity:int ->
  ?aging_s:float ->
  ?journal:string ->
  ?queue_limit:int ->
  ?retry_after_s:float ->
  ?degrade_after_s:float ->
  ?restart_budget:int ->
  ?warm_capacity:int ->
  socket:string ->
  unit ->
  (t, string) result
(** Bind, listen ({!Obs.Statsd.listen}) and serve in background
    threads. With [?pool], each of
    the [?dispatchers] (default: the pool's job count, else 1) executes
    its job as one pool task, so whole jobs run on distinct domains;
    the loops inside a job stay sequential, which keeps served verdicts
    bit-identical to one-shot CLI runs.

    [?journal] enables the write-ahead log at that path (replayed and
    compacted on startup; its [.lock] sibling serializes daemons).
    [?queue_limit] (default 64) is the admission high watermark;
    [?retry_after_s] (default 0.5) is the back-off hint shed clients
    receive; [?degrade_after_s] (default 1.0) is the sustained-overload
    window before degraded mode; [?restart_budget] (default 2) is the
    per-job dispatcher-death allowance; [?warm_capacity] bounds the
    warm-session store (default {!Warm.default_capacity}).

    A stale socket file is detected by a connect probe and replaced; a
    live daemon on the path, a non-socket file at the path, or a locked
    journal is an [Error], as is a bind/listen failure. *)

val wait : t -> unit
(** Block until shutdown is requested (by a [shutdown] request,
    {!request_shutdown}, or {!stop}). *)

val request_shutdown : t -> unit
(** Begin shutdown: refuse new submissions, set every in-flight job's
    cancel token, wake {!wait}. Idempotent, async-signal-safe enough to
    call from a signal handler. *)

val stop : t -> unit
(** Full teardown: request shutdown, close the listener (its accept
    thread joined, the socket unlinked, so new connections are refused
    at once), join the supervisor and dispatchers (in-flight jobs answer
    [cancelled] quickly via their tokens), answer still-queued jobs with
    [shutting_down], disconnect clients, join readers, close everything
    else — including the journal and its lock file. Idempotent. *)
