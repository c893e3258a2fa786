module Cancel = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let set t = Atomic.set t true
  let is_set t = Atomic.get t
end

(* Scheduler telemetry. Pool tasks are coarse — a whole served job —
   so a gauge store on each queue transition and two clock
   reads per task are noise next to the task body; nothing here touches
   a solver's inner loop. *)
let m_tasks_submitted = Obs.Metrics.counter "par.tasks_submitted"
let m_tasks_completed = Obs.Metrics.counter "par.tasks_completed"

let m_tasks_stolen = Obs.Metrics.counter "par.tasks_stolen"
(* queued tasks the submitter ran itself while waiting in [await] *)

let m_spawn_fallback = Obs.Metrics.counter "par.spawn_fallback"
let m_queue_depth = Obs.Metrics.gauge "par.queue_depth"
let m_worker_busy = Obs.Metrics.histogram "par.worker_busy_us"
let m_worker_idle = Obs.Metrics.histogram "par.worker_idle_us"

let note_queue_depth q =
  Obs.Metrics.set_gauge m_queue_depth (float_of_int (Queue.length q))

let observe_us h seconds = Obs.Metrics.observe h (int_of_float (1e6 *. seconds))

(* A job is a closure that runs a task and stores its outcome in the
   task's future; the queue never sees result types. *)
type job = unit -> unit

type pool = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  jobs : int;
  mutable workers : unit Domain.t list;
  mutable closing : bool;
}

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fut_lock : Mutex.t;
  settled : Condition.t;
  mutable state : 'a state;
  mutable orphan : job option;
      (* set when an injected Pool_submit fault "loses" the job in
         flight: it was never queued, and the first awaiter runs it
         inline instead (worker death + submitter-side recovery) *)
}

(* Pop a job if one is queued. Blocking variant used by workers only;
   returns None when the pool is closing and the queue has drained. *)
let try_pop p =
  Mutex.lock p.lock;
  let job = if Queue.is_empty p.queue then None else Some (Queue.pop p.queue) in
  (match job with Some _ -> note_queue_depth p.queue | None -> ());
  Mutex.unlock p.lock;
  job

let pop_blocking p =
  Mutex.lock p.lock;
  let rec wait () =
    if not (Queue.is_empty p.queue) then Some (Queue.pop p.queue)
    else if p.closing then None
    else begin
      Condition.wait p.nonempty p.lock;
      wait ()
    end
  in
  let job = wait () in
  (match job with Some _ -> note_queue_depth p.queue | None -> ());
  Mutex.unlock p.lock;
  job

let worker_loop p =
  let rec go () =
    let idle_from = Unix.gettimeofday () in
    match pop_blocking p with
    | None -> ()
    | Some job ->
      let busy_from = Unix.gettimeofday () in
      observe_us m_worker_idle (busy_from -. idle_from);
      job ();
      observe_us m_worker_busy (Unix.gettimeofday () -. busy_from);
      go ()
  in
  go ()

module Pool = struct
  type t = pool

  let mk jobs =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      jobs;
      workers = [];
      closing = false;
    }

  let spawn_worker p =
    if Fault.fire Fault.Domain_spawn then raise Fault.Injected;
    Domain.spawn (fun () -> worker_loop p)

  let create ?jobs () =
    let jobs =
      match jobs with
      | Some n ->
        if n < 1 then invalid_arg "Par.Pool.create: jobs must be >= 1";
        n
      | None -> Domain.recommended_domain_count ()
    in
    let p = mk jobs in
    let spawned = ref [] in
    match
      for _ = 2 to jobs do
        spawned := spawn_worker p :: !spawned
      done
    with
    | () ->
      p.workers <- List.rev !spawned;
      p
    | exception _ ->
      (* a spawn failed mid-creation: tear down the workers that did
         start instead of leaking domains, then degrade to a sequential
         pool (jobs=1), which runs every task on the submitter *)
      Mutex.lock p.lock;
      p.closing <- true;
      Condition.broadcast p.nonempty;
      Mutex.unlock p.lock;
      List.iter Domain.join !spawned;
      Obs.Metrics.incr m_spawn_fallback;
      mk 1

  let jobs p = p.jobs

  let shutdown p =
    Mutex.lock p.lock;
    let ws = p.workers in
    p.closing <- true;
    p.workers <- [];
    Condition.broadcast p.nonempty;
    Mutex.unlock p.lock;
    List.iter Domain.join ws

  let with_pool ?jobs f =
    let p = create ?jobs () in
    Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
end

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | None ->
    Error (Printf.sprintf "invalid jobs count %S (expected an integer)" s)
  | Some n when n < 1 -> Error (Printf.sprintf "jobs must be >= 1 (got %d)" n)
  | Some n -> Ok n

let env_jobs_exn ?(default = 1) () =
  match Sys.getenv_opt "SCIDUCTION_JOBS" with
  | None -> default
  | Some s -> (
    match parse_jobs s with
    | Ok n -> n
    | Error msg -> failwith ("SCIDUCTION_JOBS: " ^ msg))

let settle fut st =
  Mutex.lock fut.fut_lock;
  fut.state <- st;
  Condition.broadcast fut.settled;
  Mutex.unlock fut.fut_lock

let submit p task =
  let fut =
    { fut_lock = Mutex.create (); settled = Condition.create ();
      state = Pending; orphan = None }
  in
  let job () =
    (match task () with
    | v -> settle fut (Done v)
    | exception e -> settle fut (Failed (e, Printexc.get_raw_backtrace ())));
    Obs.Metrics.incr m_tasks_completed
  in
  if Fault.fire Fault.Pool_submit then begin
    (* injected worker death: the job is lost in flight (never queued);
       the first awaiter recovers it inline *)
    Obs.Metrics.incr m_tasks_submitted;
    fut.orphan <- Some job;
    fut
  end
  else begin
    Mutex.lock p.lock;
    if p.closing then begin
      Mutex.unlock p.lock;
      invalid_arg "Par.submit: pool is shut down"
    end;
    Queue.push job p.queue;
    Obs.Metrics.incr m_tasks_submitted;
    note_queue_depth p.queue;
    Condition.signal p.nonempty;
    Mutex.unlock p.lock;
    fut
  end

let settled_value fut =
  match fut.state with
  | Done v -> Some (Ok v)
  | Failed (e, bt) -> Some (Error (e, bt))
  | Pending -> None

(* The submitter helps drain the queue while its future is pending, so
   a jobs=1 pool degenerates to plain sequential execution and larger
   pools never idle the calling domain. Only when the queue is empty
   (our task is running on a worker) do we block on the future. *)
let claim_orphan fut =
  Mutex.lock fut.fut_lock;
  let j = fut.orphan in
  fut.orphan <- None;
  Mutex.unlock fut.fut_lock;
  j

let await p fut =
  (* recover a job lost to an injected submit fault: run it inline, so
     the future settles with the task's real outcome and concurrent
     waiters wake as usual *)
  (match claim_orphan fut with Some job -> job () | None -> ());
  let rec loop () =
    Mutex.lock fut.fut_lock;
    let v = settled_value fut in
    Mutex.unlock fut.fut_lock;
    match v with
    | Some r -> r
    | None -> (
      match try_pop p with
      | Some job ->
        Obs.Metrics.incr m_tasks_stolen;
        job ();
        loop ()
      | None ->
        Mutex.lock fut.fut_lock;
        while settled_value fut = None do
          Condition.wait fut.settled fut.fut_lock
        done;
        let r = Option.get (settled_value fut) in
        Mutex.unlock fut.fut_lock;
        r)
  in
  match loop () with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
