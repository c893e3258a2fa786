(* The long-lived verification server.

   One Unix-domain listener, one reader systhread per client, N
   dispatcher systhreads executing jobs (through the Par pool when one
   is given — each dispatcher submits one task and awaits it, so with a
   pool of J units roughly J jobs make progress on distinct domains).
   Shared state (the pending queue, the in-flight table, the client
   registry, the dispatcher slots) lives behind one mutex + condvar;
   the result cache, the warm-session store and the journal have their
   own locks.

   Scheduling is FIFO with aging: the queue is scanned for the lowest
   effective priority [priority - age/aging_s], ties broken by arrival
   order, so a high-priority stream cannot starve earlier cheap
   requests forever. Cancellation is cooperative end to end: every job
   owns a Par.Cancel token, installed as the Budget's cancel hook (and,
   through Sciduction.Loop.solve, as the in-flight solver's stop
   callback), so an explicit cancel, a client disconnect, or shutdown
   stops a running solver within a poll interval.

   Durability: with a journal, every accepted submission is fsync'd to
   the write-ahead log before its ack, every terminal answer appends a
   [done]/[cancelled] record, and [start] replays the log — rebuilding
   the cache from [done] records and re-enqueueing acked-but-unfinished
   jobs as ownerless work whose verdicts land in the cache for the
   resubmitting client. A replayed job that already crashed the daemon
   more times than the restart budget is refused as poisoned.

   Overload: admission is bounded by a high/low watermark pair on the
   queue. At the high watermark submissions shed with a typed
   [overloaded {retry_after_s}] answer; when the shedding persists past
   a sustain window, or dispatchers keep dying, the daemon enters
   degraded mode — cache and warm-family hits are still served, fresh
   heavy jobs shed — and leaves it once the queue drains to the low
   watermark and dispatcher deaths quiet down.

   Supervision: each dispatcher runs in a slot that records the job it
   is holding. A dispatcher death (a real bug, or an injected
   [Serve_dispatch] fault) wakes the supervisor, which requeues the
   victim's job (bounded by the restart budget, then a typed
   [internal_error] to that client only), re-arms the slot with a fresh
   thread, and counts the death toward degraded-mode entry. A reader
   death ([Serve_reader]) costs only that client's connection.

   Write-side discipline: a reader holds the connection's write lock
   across [check + enqueue + ack], so a dispatcher (which takes the
   same lock to write the result) can never put a result on the wire
   before its ack. Lock order is always conn.wlock -> t.lock; the
   dispatcher and supervisor send while holding neither. *)

module P = Protocol

let m_requests = Obs.Metrics.counter "server.requests"
let m_done = Obs.Metrics.counter "server.requests_done"
let m_cancelled = Obs.Metrics.counter "server.requests_cancelled"
let m_faults = Obs.Metrics.counter "server.requests_faulted"
let m_request_ms = Obs.Metrics.histogram "server.request_ms"
let m_inflight = Obs.Metrics.gauge "server.requests_inflight"
let m_queue_depth = Obs.Metrics.gauge "server.queue_depth"
let m_shed = Obs.Metrics.counter "server.shed_total"
let m_degraded = Obs.Metrics.gauge "server.degraded"
let m_requeued = Obs.Metrics.counter "server.jobs_requeued"
let m_restarts = Obs.Metrics.counter "server.dispatcher_restarts"
let m_reader_crashes = Obs.Metrics.counter "server.reader_crashes"
let m_given_up = Obs.Metrics.counter "server.jobs_given_up"

type conn = {
  fd : Unix.file_descr;
  wlock : Mutex.t;
  mutable alive : bool;
}

type pending = {
  id : string;
  owner : conn option; (* None: replayed from the journal, no client *)
  spec : Jobs.spec;
  cache_key : string;
  timeout : float option;
  max_conflicts : int option;
  priority : int;
  enqueued : float;
  token : Par.Cancel.t;
  mutable requeues : int; (* dispatcher deaths survived, this process *)
}

type slot = {
  mutable th : Thread.t option;
  mutable current : pending option; (* the job a death would orphan *)
}

type t = {
  listener : Obs.Statsd.listener;
  done_r : Unix.file_descr; (* wakes [wait] *)
  done_w : Unix.file_descr;
  lock : Mutex.t;
  cond : Condition.t;
  mutable queue : pending list; (* arrival order *)
  inflight : (string, pending) Hashtbl.t;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable shutting_down : bool;
  cache : Cache.t;
  warm : Warm.t;
  pool : Par.Pool.t option;
  aging_s : float;
  journal : Journal.t option;
  queue_high : int;
  queue_low : int;
  retry_after_s : float;
  degrade_after_s : float;
  restart_budget : int;
  mutable degraded : bool;
  mutable overload_since : float option; (* first shed of the burst *)
  mutable death_times : float list; (* recent dispatcher deaths, newest first *)
  slots : slot array;
  mutable sup_dead : int list; (* slot indices awaiting supervision *)
  sup_cond : Condition.t;
  mutable supervisor : Thread.t option;
  mutable stopped : bool;
}

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let send conn resp =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      if conn.alive then
        try write_all conn.fd (P.response_to_line resp)
        with Unix.Unix_error _ -> conn.alive <- false)

let send_owner p resp =
  match p.owner with Some conn -> send conn resp | None -> ()

let same_owner p conn =
  match p.owner with Some c -> c == conn | None -> false

let set_gauges t =
  (* caller holds t.lock *)
  Obs.Metrics.set_gauge m_queue_depth (float_of_int (List.length t.queue));
  Obs.Metrics.set_gauge m_inflight (float_of_int (Hashtbl.length t.inflight))

(* ----- journal plumbing ----- *)

(* the submit path is the only one allowed to fail loudly: a lost
   Submitted record means the ack's durability promise is broken, so
   the submission is refused. Terminal records degrade quietly — the
   worst case is one finished job replayed after a crash. *)
let journal_submit t (s : P.submit) cache_key =
  match t.journal with
  | None -> Ok ()
  | Some j -> (
    match
      Journal.append ~sync:true j
        (Journal.Submitted
           {
             sj_id = s.P.id;
             sj_key = cache_key;
             sj_spec = s.P.spec;
             sj_timeout = s.P.timeout;
             sj_max_conflicts = s.P.max_conflicts;
             sj_priority = s.P.priority;
             sj_starts = 0;
           })
    with
    | () -> Ok ()
    | exception Fault.Injected -> Error "injected fault at journal write"
    | exception e -> Error (Printexc.to_string e))

let journal_quiet t record =
  match t.journal with
  | None -> ()
  | Some j -> ( try Journal.append j record with _ -> ())

(* ----- degraded-mode state machine (callers hold t.lock) ----- *)

let enter_degraded t ~reason =
  if not t.degraded then begin
    t.degraded <- true;
    Obs.Metrics.set_gauge m_degraded 1.0;
    Obs.emit (Obs.Degraded_entered { loop = "server"; reason; attrs = [] })
  end

(* exit once pressure is demonstrably gone: queue at/below the low
   watermark and no dispatcher death for a full sustain window *)
let maybe_exit_degraded t =
  if
    t.degraded
    && List.length t.queue <= t.queue_low
    &&
    match t.death_times with
    | [] -> true
    | newest :: _ -> Unix.gettimeofday () -. newest >= t.degrade_after_s
  then begin
    t.degraded <- false;
    t.overload_since <- None;
    Obs.Metrics.set_gauge m_degraded 0.0;
    Obs.emit (Obs.Degraded_exited { loop = "server"; attrs = [] })
  end

(* ----- scheduler ----- *)

(* Lowest effective priority wins; the queue is kept in arrival order,
   so the first minimum found is also the oldest. Requeued and replayed
   jobs keep their original enqueue stamp, so aging sends them to the
   front of their priority class. *)
let pick_best t =
  match t.queue with
  | [] -> None
  | first :: _ ->
    let now = Unix.gettimeofday () in
    let eff p =
      float_of_int p.priority -. ((now -. p.enqueued) /. t.aging_s)
    in
    let best =
      List.fold_left
        (fun acc p -> if eff p < eff acc then p else acc)
        first t.queue
    in
    t.queue <- List.filter (fun p -> p != best) t.queue;
    Some best

let err_of_exn = function
  | Fault.Injected ->
    (P.Fault_injected, "injected fault: the job died before its verdict")
  | Failure msg -> (P.Job_failed, msg)
  | e -> (P.Job_failed, Printexc.to_string e)

let execute t (p : pending) =
  let t0 = Unix.gettimeofday () in
  let fail code message =
    journal_quiet t (Journal.Cancelled { id = p.id });
    send_owner p
      (P.Err { code; message; id = Some p.id; retry_after_s = None })
  in
  if Par.Cancel.is_set p.token then begin
    Obs.Metrics.incr m_cancelled;
    fail P.Cancelled (Printf.sprintf "job %s cancelled" p.id)
  end
  else if Fault.fire Fault.Serve_job then begin
    Obs.Metrics.incr m_faults;
    fail P.Fault_injected "injected fault: the job died before its verdict"
  end
  else begin
    let budget =
      Budget.limited ?seconds:p.timeout ?conflicts:p.max_conflicts
        ~cancel:(fun () -> Par.Cancel.is_set p.token)
        ()
    in
    (* the loop inside the job is sequential: parallelism comes from
       running whole jobs on distinct pool units, and verdicts stay
       identical to a one-shot CLI run *)
    let run () = Jobs.run ~warm:t.warm ~budget p.spec in
    match
      match t.pool with
      | Some pool -> Par.await pool (Par.submit pool run)
      | None -> run ()
    with
    | exception e ->
      let code, message = err_of_exn e in
      if code = P.Fault_injected then Obs.Metrics.incr m_faults;
      fail code message
    | r ->
      let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      Obs.Metrics.observe m_request_ms (int_of_float ms);
      if Par.Cancel.is_set p.token then begin
        Obs.Metrics.incr m_cancelled;
        fail P.Cancelled (Printf.sprintf "job %s cancelled" p.id)
      end
      else begin
        if r.Jobs.cacheable then
          Cache.store t.cache p.cache_key ~verdict:r.Jobs.verdict
            ~code:r.Jobs.code;
        journal_quiet t
          (Journal.Done
             {
               id = p.id;
               key = p.cache_key;
               verdict = r.Jobs.verdict;
               code = r.Jobs.code;
               cacheable = r.Jobs.cacheable;
             });
        Obs.Metrics.incr m_done;
        send_owner p
          (P.Result
             {
               id = p.id;
               verdict = r.Jobs.verdict;
               code = r.Jobs.code;
               cached = false;
               ms;
             })
      end
  end

(* ----- dispatchers and their supervisor ----- *)

let rec dispatcher_loop t (slot : slot) =
  Mutex.lock t.lock;
  let rec next () =
    if t.shutting_down then None
    else
      match pick_best t with
      | Some p -> Some p
      | None ->
        Condition.wait t.cond t.lock;
        next ()
  in
  match next () with
  | None -> Mutex.unlock t.lock
  | Some p ->
    Hashtbl.replace t.inflight p.id p;
    slot.current <- Some p;
    set_gauges t;
    Mutex.unlock t.lock;
    (* an injected dispatcher death happens exactly here — after the
       claim, before the verdict — so the supervisor always finds the
       victim's job in the slot *)
    if Fault.fire Fault.Serve_dispatch then raise Fault.Injected;
    journal_quiet t (Journal.Started { id = p.id });
    (try execute t p
     with e ->
       journal_quiet t (Journal.Cancelled { id = p.id });
       send_owner p
         (P.Err
            {
              code = P.Job_failed;
              message = Printexc.to_string e;
              id = Some p.id;
              retry_after_s = None;
            }));
    Mutex.lock t.lock;
    Hashtbl.remove t.inflight p.id;
    slot.current <- None;
    set_gauges t;
    maybe_exit_degraded t;
    Mutex.unlock t.lock;
    dispatcher_loop t slot

let dispatcher_thread t i =
  try dispatcher_loop t t.slots.(i)
  with _ ->
    (* the dispatcher is dead; hand the slot to the supervisor *)
    Mutex.lock t.lock;
    t.sup_dead <- i :: t.sup_dead;
    Condition.signal t.sup_cond;
    Mutex.unlock t.lock

(* death-rate window for degraded-mode entry: this many deaths inside
   [death_window_s] means the fleet is sick, not one unlucky job *)
let death_window_s = 10.0

let supervisor t =
  let rec loop () =
    Mutex.lock t.lock;
    while t.sup_dead = [] && not t.shutting_down do
      Condition.wait t.sup_cond t.lock
    done;
    let deaths = t.sup_dead in
    t.sup_dead <- [];
    if deaths = [] then Mutex.unlock t.lock (* shutting down, all armed *)
    else begin
      let now = Unix.gettimeofday () in
      let actions = ref [] in
      List.iter
        (fun i ->
          let slot = t.slots.(i) in
          Obs.Metrics.incr m_restarts;
          t.death_times <-
            now
            :: List.filter
                 (fun ts -> now -. ts <= death_window_s)
                 t.death_times;
          (match slot.current with
          | None -> ()
          | Some p ->
            slot.current <- None;
            Hashtbl.remove t.inflight p.id;
            if t.shutting_down || Par.Cancel.is_set p.token then begin
              Obs.Metrics.incr m_cancelled;
              actions :=
                `Terminal
                  ( p,
                    P.Err
                      {
                        code = P.Cancelled;
                        message = Printf.sprintf "job %s cancelled" p.id;
                        id = Some p.id;
                        retry_after_s = None;
                      } )
                :: !actions
            end
            else if p.requeues >= t.restart_budget then begin
              (* poisoned: it has killed a dispatcher [restart_budget]+1
                 times. Give up on this job only *)
              Obs.Metrics.incr m_given_up;
              actions :=
                `Terminal
                  ( p,
                    P.Err
                      {
                        code = P.Internal_error;
                        message =
                          Printf.sprintf
                            "job %s crashed its dispatcher %d times; giving \
                             up"
                            p.id (p.requeues + 1);
                        id = Some p.id;
                        retry_after_s = None;
                      } )
                :: !actions
            end
            else begin
              p.requeues <- p.requeues + 1;
              Obs.Metrics.incr m_requeued;
              Obs.emit
                (Obs.Job_requeued
                   {
                     loop = "server";
                     id = p.id;
                     requeue = p.requeues;
                     restart_budget = t.restart_budget;
                     attrs = [];
                   });
              t.queue <- t.queue @ [ p ];
              Condition.signal t.cond
            end);
          if
            List.length t.death_times >= max 2 (Array.length t.slots)
            && not t.shutting_down
          then enter_degraded t ~reason:"dispatcher failures";
          if not t.shutting_down then
            slot.th <-
              Some (Thread.create (fun () -> dispatcher_thread t i) ()))
        deaths;
      set_gauges t;
      Mutex.unlock t.lock;
      (* sends happen outside t.lock (lock order conn.wlock -> t.lock) *)
      List.iter
        (fun (`Terminal (p, resp)) ->
          journal_quiet t (Journal.Cancelled { id = p.id });
          send_owner p resp)
        !actions;
      loop ()
    end
  in
  loop ()

(* ----- shutdown plumbing ----- *)

let request_shutdown t =
  Mutex.lock t.lock;
  let first = not t.shutting_down in
  t.shutting_down <- true;
  if first then begin
    (* stop in-flight work quickly; each job answers Cancelled *)
    Hashtbl.iter (fun _ p -> Par.Cancel.set p.token) t.inflight;
    Condition.broadcast t.cond;
    Condition.broadcast t.sup_cond
  end;
  Mutex.unlock t.lock;
  if first then begin
    Obs.Statsd.interrupt t.listener;
    try ignore (Unix.write t.done_w (Bytes.of_string "x") 0 1 : int)
    with Unix.Unix_error _ -> ()
  end

(* ----- per-client reader ----- *)

let drop_client t conn =
  Mutex.lock t.lock;
  (* a vanished client cannot read results: cancel everything it owns *)
  let mine, rest = List.partition (fun p -> same_owner p conn) t.queue in
  t.queue <- rest;
  List.iter (fun p -> Par.Cancel.set p.token) mine;
  Hashtbl.iter
    (fun _ p -> if same_owner p conn then Par.Cancel.set p.token)
    t.inflight;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  if mine <> [] then Obs.Metrics.add m_cancelled (List.length mine);
  set_gauges t;
  Mutex.unlock t.lock;
  (* dequeued jobs never reach a dispatcher: give them their terminal
     journal record here or replay would resurrect them *)
  List.iter (fun p -> journal_quiet t (Journal.Cancelled { id = p.id })) mine;
  Mutex.lock conn.wlock;
  conn.alive <- false;
  Mutex.unlock conn.wlock;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* degraded admission: what still gets in is exactly what the daemon
   can answer without fresh heavy work — cache hits (handled before
   this) and BMC jobs whose family already has a warm session *)
let warm_admissible t spec =
  match spec with
  | Jobs.Bmc _ -> Warm.mem t.warm (Jobs.family spec)
  | _ -> false

let handle_submit t conn (s : P.submit) =
  Obs.Metrics.incr m_requests;
  let cache_key = Jobs.key s.P.spec in
  (* hold the write lock across decide + ack (+ cached result) so a
     dispatcher's result can never overtake the ack on the wire *)
  Mutex.lock conn.wlock;
  let replies =
    Mutex.lock t.lock;
    (* an idle daemon must not stay degraded forever: re-check the exit
       condition on traffic, not only on job completions *)
    maybe_exit_degraded t;
    let answer =
      if t.shutting_down then
        [
          P.Err
            {
              code = P.Shutting_down;
              message = "server is shutting down";
              id = Some s.P.id;
              retry_after_s = None;
            };
        ]
      else if
        Hashtbl.mem t.inflight s.P.id
        || List.exists (fun p -> p.id = s.P.id) t.queue
      then
        [
          P.Err
            {
              code = P.Duplicate_id;
              message =
                Printf.sprintf "a job named %S is already live" s.P.id;
              id = Some s.P.id;
              retry_after_s = None;
            };
        ]
      else begin
        match Cache.find t.cache cache_key with
        | Some (verdict, code) ->
          [
            P.Ack s.P.id;
            P.Result { id = s.P.id; verdict; code; cached = true; ms = 0.0 };
          ]
        | None ->
          let qlen = List.length t.queue in
          let now = Unix.gettimeofday () in
          let shed message =
            Obs.Metrics.incr m_shed;
            [
              P.Err
                {
                  code = P.Overloaded;
                  message;
                  id = Some s.P.id;
                  retry_after_s = Some t.retry_after_s;
                };
            ]
          in
          if qlen >= t.queue_high then begin
            (match t.overload_since with
            | None -> t.overload_since <- Some now
            | Some since ->
              if now -. since >= t.degrade_after_s then
                enter_degraded t ~reason:"sustained overload");
            shed
              (Printf.sprintf
                 "queue full (%d jobs); retry in %.2fs" qlen t.retry_after_s)
          end
          else if t.degraded && not (warm_admissible t s.P.spec) then
            shed "server degraded; only cache and warm-session hits admitted"
          else begin
            if qlen <= t.queue_low then t.overload_since <- None;
            match journal_submit t s cache_key with
            | Error msg ->
              [
                P.Err
                  {
                    code = P.Internal_error;
                    message = "journal write failed: " ^ msg;
                    id = Some s.P.id;
                    retry_after_s = Some t.retry_after_s;
                  };
              ]
            | Ok () ->
              t.queue <-
                t.queue
                @ [
                    {
                      id = s.P.id;
                      owner = Some conn;
                      spec = s.P.spec;
                      cache_key;
                      timeout = s.P.timeout;
                      max_conflicts = s.P.max_conflicts;
                      priority = s.P.priority;
                      enqueued = now;
                      token = Par.Cancel.create ();
                      requeues = 0;
                    };
                  ];
              set_gauges t;
              Condition.signal t.cond;
              [ P.Ack s.P.id ]
          end
      end
    in
    Mutex.unlock t.lock;
    answer
  in
  List.iter
    (fun resp ->
      if conn.alive then
        try write_all conn.fd (P.response_to_line resp)
        with Unix.Unix_error _ -> conn.alive <- false)
    replies;
  Mutex.unlock conn.wlock

let handle_cancel t conn id =
  let outcome =
    Mutex.lock t.lock;
    let r =
      match List.find_opt (fun p -> p.id = id) t.queue with
      | Some p ->
        t.queue <- List.filter (fun q -> q != p) t.queue;
        Par.Cancel.set p.token;
        set_gauges t;
        `Dequeued p
      | None -> (
        match Hashtbl.find_opt t.inflight id with
        | Some p ->
          Par.Cancel.set p.token;
          `Running
        | None -> `Unknown)
    in
    Mutex.unlock t.lock;
    r
  in
  match outcome with
  | `Dequeued p ->
    Obs.Metrics.incr m_cancelled;
    journal_quiet t (Journal.Cancelled { id = p.id });
    send conn (P.Ack id);
    (* the owner (usually the same connection) learns the job is gone *)
    send_owner p
      (P.Err
         {
           code = P.Cancelled;
           message = Printf.sprintf "job %s cancelled" id;
           id = Some id;
           retry_after_s = None;
         })
  | `Running -> send conn (P.Ack id) (* its dispatcher answers Cancelled *)
  | `Unknown ->
    send conn
      (P.Err
         {
           code = P.Unknown_job;
           message = Printf.sprintf "no live job named %S" id;
           id = Some id;
           retry_after_s = None;
         })

let stats_json t =
  Mutex.lock t.lock;
  let queued = List.length t.queue in
  let inflight = Hashtbl.length t.inflight in
  let clients = List.length t.conns in
  let degraded = t.degraded in
  let journaled = t.journal <> None in
  Mutex.unlock t.lock;
  Obs.Json.Obj
    [
      ("queued", Obs.Json.Int queued);
      ("inflight", Obs.Json.Int inflight);
      ("clients", Obs.Json.Int clients);
      ("done", Obs.Json.Int (Obs.Metrics.counter_value m_done));
      ("cancelled", Obs.Json.Int (Obs.Metrics.counter_value m_cancelled));
      ("faulted", Obs.Json.Int (Obs.Metrics.counter_value m_faults));
      ("cache_hits", Obs.Json.Int (Cache.hits ()));
      ("cache_misses", Obs.Json.Int (Cache.misses ()));
      ("warm_hits", Obs.Json.Int (Warm.hits ()));
      ("warm_families", Obs.Json.Int (Warm.families t.warm));
      ("warm_evictions", Obs.Json.Int (Warm.evictions ()));
      ("degraded", Obs.Json.Int (if degraded then 1 else 0));
      ("shed", Obs.Json.Int (Obs.Metrics.counter_value m_shed));
      ("requeued", Obs.Json.Int (Obs.Metrics.counter_value m_requeued));
      ( "dispatcher_restarts",
        Obs.Json.Int (Obs.Metrics.counter_value m_restarts) );
      ("journaled", Obs.Json.Bool journaled);
    ]

let handle_line t conn ~overflowed line =
  if overflowed then
    send conn
      (P.Err
         {
           code = P.Oversized;
           message =
             Printf.sprintf "request line exceeds %d bytes" P.max_line_bytes;
           id = None;
           retry_after_s = None;
         })
  else
    match P.parse_request line with
    | Error (code, message) ->
      send conn (P.Err { code; message; id = None; retry_after_s = None })
    | Ok P.Ping -> send conn P.Pong
    | Ok P.Stats -> send conn (P.StatsReply (stats_json t))
    | Ok P.Shutdown ->
      send conn P.Bye;
      request_shutdown t
    | Ok (P.Cancel id) -> handle_cancel t conn id
    | Ok (P.Submit s) -> handle_submit t conn s

let reader t conn =
  let chunk = Bytes.create 4096 in
  let line = Buffer.create 256 in
  let overflowed = ref false in
  (* nothing a request line does may escape the reader: an unexpected
     handler exception becomes a typed internal_error on this
     connection and the loop keeps reading *)
  let handle_line_safe ~overflowed s =
    try handle_line t conn ~overflowed s
    with
    | Fault.Injected as e -> raise e (* reader-death site, below *)
    | e ->
      send conn
        (P.Err
           {
             code = P.Internal_error;
             message = "request handler failed: " ^ Printexc.to_string e;
             id = None;
             retry_after_s = None;
           })
  in
  let feed b =
    if b = '\n' then begin
      let s = Buffer.contents line in
      Buffer.clear line;
      let over = !overflowed in
      overflowed := false;
      if s <> "" || over then handle_line_safe ~overflowed:over s
    end
    else if Buffer.length line >= P.max_line_bytes then overflowed := true
    else Buffer.add_char line b
  in
  let rec loop () =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      if Fault.fire Fault.Serve_reader then raise Fault.Injected;
      for i = 0 to n - 1 do
        feed (Bytes.get chunk i)
      done;
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  (* a reader death — injected or real — costs exactly one client *)
  (try loop () with _ -> Obs.Metrics.incr m_reader_crashes);
  drop_client t conn

(* ----- acceptor ----- *)

let accept_client t fd =
  let conn = { fd; wlock = Mutex.create (); alive = true } in
  Mutex.lock t.lock;
  t.conns <- conn :: t.conns;
  t.readers <- Thread.create (fun () -> reader t conn) () :: t.readers;
  Mutex.unlock t.lock

(* ----- lifecycle ----- *)

let start ?pool ?dispatchers ?(cache_capacity = 256) ?(aging_s = 5.0) ?journal
    ?(queue_limit = 64) ?(retry_after_s = 0.5) ?(degrade_after_s = 1.0)
    ?(restart_budget = 2) ?warm_capacity ~socket () =
  if aging_s <= 0.0 then invalid_arg "Daemon.start: aging_s must be positive";
  if queue_limit < 1 then
    invalid_arg "Daemon.start: queue_limit must be >= 1";
  if restart_budget < 0 then
    invalid_arg "Daemon.start: restart_budget must be >= 0";
  let width =
    match dispatchers with
    | Some n ->
      if n < 1 then invalid_arg "Daemon.start: dispatchers must be >= 1";
      n
    | None -> ( match pool with Some p -> Par.Pool.jobs p | None -> 1)
  in
  match Obs.Statsd.listen socket with
  | Error e -> Error (Obs.Statsd.socket_error_message e)
  | Ok listener -> (
    let journal_state =
      match journal with
      | None -> Ok None
      | Some path -> (
        match Journal.recover ~path with
        | Ok (j, replayed) -> Ok (Some (j, replayed))
        | Error msg -> Error msg)
    in
    match journal_state with
    | Error msg ->
      Obs.Statsd.close_listener listener;
      Error msg
    | Ok journal_state ->
      let done_r, done_w = Unix.pipe ~cloexec:true () in
      let t =
        {
          listener;
          done_r;
          done_w;
          lock = Mutex.create ();
          cond = Condition.create ();
          queue = [];
          inflight = Hashtbl.create 16;
          conns = [];
          readers = [];
          shutting_down = false;
          cache = Cache.create ~capacity:cache_capacity ();
          warm = Warm.create ?capacity:warm_capacity ();
          pool;
          aging_s;
          journal = Option.map fst journal_state;
          queue_high = queue_limit;
          queue_low = max 1 (queue_limit / 2);
          retry_after_s;
          degrade_after_s;
          restart_budget;
          degraded = false;
          overload_since = None;
          death_times = [];
          slots = Array.init width (fun _ -> { th = None; current = None });
          sup_dead = [];
          sup_cond = Condition.create ();
          supervisor = None;
          stopped = false;
        }
      in
      (* crash recovery: verdicts back into the cache, acked-but-
         unfinished jobs back onto the queue as ownerless work whose
         results will be served from the cache on resubmission *)
      (match journal_state with
      | None -> ()
      | Some (_, replayed) ->
        List.iter
          (fun (key, verdict, code) ->
            Cache.store t.cache key ~verdict ~code)
          replayed.Journal.rj_results;
        let now = Unix.gettimeofday () in
        List.iter
          (fun (sj : Journal.submit) ->
            if sj.Journal.sj_starts > t.restart_budget then
              (* poisoned across restarts: it took down this many
                 whole daemons; refuse to resurrect it *)
              journal_quiet t (Journal.Cancelled { id = sj.Journal.sj_id })
            else
              t.queue <-
                t.queue
                @ [
                    {
                      id = sj.Journal.sj_id;
                      owner = None;
                      spec = sj.Journal.sj_spec;
                      cache_key = sj.Journal.sj_key;
                      timeout = sj.Journal.sj_timeout;
                      max_conflicts = sj.Journal.sj_max_conflicts;
                      priority = sj.Journal.sj_priority;
                      enqueued = now;
                      token = Par.Cancel.create ();
                      requeues = 0;
                    };
                  ])
          replayed.Journal.rj_pending;
        set_gauges t);
      t.supervisor <- Some (Thread.create (fun () -> supervisor t) ());
      Array.iteri
        (fun i slot ->
          slot.th <- Some (Thread.create (fun () -> dispatcher_thread t i) ()))
        t.slots;
      Obs.Statsd.accept_loop listener (accept_client t);
      Ok t)

let wait t =
  let buf = Bytes.create 1 in
  let rec go () =
    match Unix.select [ t.done_r ] [] [] (-1.0) with
    | readable, _, _ when List.mem t.done_r readable ->
      ignore (Unix.read t.done_r buf 0 1 : int)
    | _ -> go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    request_shutdown t;
    Obs.Statsd.close_listener t.listener;
    (* the dispatchers drain: in-flight jobs see their cancel tokens and
       answer quickly, then each thread observes shutting_down. The
       supervisor drains its death list first (it may still send
       terminal errors and must not respawn), then exits *)
    Mutex.lock t.lock;
    Condition.broadcast t.cond;
    Condition.broadcast t.sup_cond;
    Mutex.unlock t.lock;
    Option.iter Thread.join t.supervisor;
    t.supervisor <- None;
    Array.iter
      (fun slot ->
        Option.iter Thread.join slot.th;
        slot.th <- None)
      t.slots;
    (* whatever is still queued can no longer run *)
    Mutex.lock t.lock;
    let orphans = t.queue in
    t.queue <- [];
    let conns = t.conns in
    let readers = t.readers in
    set_gauges t;
    Mutex.unlock t.lock;
    List.iter
      (fun p ->
        journal_quiet t (Journal.Cancelled { id = p.id });
        send_owner p
          (P.Err
             {
               code = P.Shutting_down;
               message = "server is shutting down";
               id = Some p.id;
               retry_after_s = None;
             }))
      orphans;
    (* nudge the readers off their blocking reads, then join them *)
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      conns;
    List.iter Thread.join readers;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.done_r; t.done_w ];
    Option.iter Journal.close t.journal
  end
