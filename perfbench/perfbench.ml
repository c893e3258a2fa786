(* The repository benchmark: one command per workload and seed.

     perfbench.exe --workload synth|verify|serve --seed N --seconds S --trace 0|1

   It draws a seeded job stream (Jobstream), sets up (for serve, spawns
   the daemon; then runs the fixed warm-up jobs), then runs
   whole blocks of the stream for at least S seconds, checks every
   verdict independently (Check), prints each metric on its own line and
   ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
   --trace 0 reports the end-to-end metrics; --trace 1 alternates
   untraced and traced blocks and reports the per-layer metrics. *)

module J = Server.Jobs
module P = Server.Protocol
module S = Jobstream

let t_start = Unix.gettimeofday ()
let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ----- limits ----- *)

(* the whole run, set-up and checks included, ends before this *)
let hard_limit = 170.0
(* fresh-process set-up probes taken before the timed phase and again
   after it; with the run's own set-up, setup_s is the median of seven *)
let setup_probes = 3

(* serve's client connections and daemon dispatchers, fixed so runs
   compare across machines (the workload was sized on two cores) *)
let clients = 2

(* ----- arguments ----- *)

let arg name =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let int_arg name default =
  match arg name with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %s" name v)

let workload =
  match arg "--workload" with
  | Some ("synth" | "verify" | "serve" as w) -> w
  | Some w -> die "unknown workload %S (synth, verify or serve)" w
  | None -> die "usage: perfbench.exe --workload synth|verify|serve --seed N --seconds S --trace 0|1"

let seed = int_arg "--seed" 1
let seconds = float_of_int (int_arg "--seconds" 10)
let traced = int_arg "--trace" 0 = 1
let probe = Array.mem "--setup-probe" Sys.argv

(* ----- the daemon, and the watchdog that bounds every exit path ----- *)

let daemon_pid : int option Atomic.t = Atomic.make None

let kill_daemon () =
  match Atomic.exchange daemon_pid None with
  | None -> ()
  | Some pid -> (
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())

let () =
  at_exit kill_daemon;
  ignore
    (Thread.create
       (fun () ->
         Thread.delay (hard_limit -. (now () -. t_start));
         prerr_endline "perfbench: run exceeded its time limit";
         kill_daemon ();
         Unix._exit 3)
       ())

let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/sciduction_cli.exe"

let scratch =
  let dir = Printf.sprintf ".perfbench-tmp/%d" (Unix.getpid ()) in
  lazy
    ((try Unix.mkdir ".perfbench-tmp" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     Unix.mkdir dir 0o755;
     at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)));
     dir)

type daemon = { pid : int; socket : string; journal : string }

let spawn_daemon () =
  let dir = Lazy.force scratch in
  let socket = Filename.concat dir "sock" and journal = Filename.concat dir "journal" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let n = string_of_int clients in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--journal"; journal; "--jobs"; n;
         "--dispatchers"; n; "--quiet" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  Atomic.set daemon_pid (Some pid);
  let rec await k =
    match Server.Client.ping ~socket () with
    | Ok () -> ()
    | Error e when k = 0 -> die "daemon did not answer a ping: %s" e
    | Error _ ->
      Thread.delay 0.002;
      await (k - 1)
  in
  await 5000;
  { pid; socket; journal }

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let stop_daemon d =
  (match Server.Client.shutdown ~socket:d.socket () with
  | Ok () ->
    let deadline = now () +. 10.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () < deadline ->
        Thread.delay 0.005;
        reap ()
      | 0, _ -> ()
      | _ -> Atomic.set daemon_pid None
    in
    reap ()
  | Error e -> prerr_endline ("perfbench: shutdown failed: " ^ e));
  kill_daemon ()

let job_deadline = Runner.job_deadline
let budget = Runner.budget

(* ----- records ----- *)

type record = {
  index : int;
  kind : string;
  traced : bool;
  start : float;
  dur : float;  (* seconds, as the caller sees it *)
  ok : (unit, string) result;
  ack : float option;  (* serve: submit to ack *)
  service : float option;  (* serve: the daemon's service time, cold jobs *)
  cached : bool;
}

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let i = int_of_float (Float.ceil (q *. float_of_int (Array.length a))) - 1 in
    a.(max 0 (min (Array.length a - 1) i))

let ms x = 1000.0 *. x

(* ----- per-layer accounting (traced blocks only) ----- *)

let counters =
  [ "sat.conflicts"; "sat.propagations"; "sat.restarts"; "sat.db_reductions";
    "sat.solves"; "tseitin.clauses"; "tseitin.gates";
    "bitblast.term_cache_hits"; "bitblast.term_cache_misses";
    "bitblast.formula_cache_hits"; "bitblast.formula_cache_misses";
    "bitblast.shared_hits"; "bitblast.shared_misses";
    "lstar.membership_queries" ]

let counter_values () =
  let snap = Obs.Metrics.snapshot () in
  List.map
    (fun c ->
      match List.assoc_opt c snap with
      | Some (Obs.Metrics.Counter v) -> float_of_int v
      | _ -> 0.0)
    counters

let deltas : float array = Array.make (List.length counters) 0.0
let gc_minor = ref 0.0
let gc_major = ref 0
let spans : Spans.t list ref = ref []

(* Trace one block: counter and GC deltas around it, the program's spans
   through a memory sink, kept (reduced) until the run ends. *)
let traced_block f =
  let c0 = counter_values () and g0 = Gc.quick_stat () in
  Obs.enable ();
  let sink, records = Obs.memory_sink () in
  Obs.add_sink sink;
  let r = f () in
  let recs = records () in
  Obs.shutdown ();
  let g1 = Gc.quick_stat () in
  List.iteri (fun i (a, b) -> deltas.(i) <- deltas.(i) +. b -. a)
    (List.combine c0 (counter_values ()));
  gc_minor := !gc_minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
  gc_major := !gc_major + g1.Gc.major_collections - g0.Gc.major_collections;
  spans := List.rev_append (Spans.of_records recs) !spans;
  r

(* ----- set-up ----- *)

type setup = { daemon : daemon option; warmup : J.spec list }

let setup () =
  match workload with
  | "serve" ->
    let d = spawn_daemon () in
    let specs = List.filter_map (function S.Spec s -> Some s | _ -> None) (S.warmup workload) in
    List.iter
      (fun spec ->
        match Server.Client.submit ~socket:d.socket ~timeout:job_deadline spec with
        | Ok o -> (
          match Check.spec spec ~verdict:o.Server.Client.verdict ~code:o.Server.Client.code with
          | Ok () -> ()
          | Error e -> die "warm-up job %s: %s" (S.describe (S.Spec spec)) e)
        | Error _ -> die "warm-up job %s failed" (S.describe (S.Spec spec)))
      specs;
    { daemon = Some d; warmup = specs }
  | _ ->
    List.iter
      (fun job ->
        match Runner.check job (Runner.run job) with
        | Ok () -> ()
        | Error e -> die "warm-up job %s: %s" (S.describe job) e)
      (S.warmup workload);
    { daemon = None; warmup = [] }

(* one set-up in a fresh process, timed by itself like the main one *)
let probe_setup () =
  let args =
    [| Sys.executable_name; "--setup-probe"; "--workload"; workload; "--seed";
       string_of_int seed |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic, float_of_string_opt line with
  | Unix.WEXITED 0, Some s -> s
  | _ -> die "set-up probe failed"

(* ----- the in-process workloads ----- *)

let run_blocks draw =
  let r = S.rng ~seed workload in
  let records = ref [] and index = ref 0 and block = ref 0 in
  let t0 = now () in
  (* a traced run needs at least one untraced and one traced block *)
  while now () -. t0 < seconds || (traced && !block < 2) do
    let traced_now = traced && !block mod 2 = 1 in
    let jobs = draw r in
    let run () =
      Array.iter
        (fun job ->
          let kind = S.kind job in
          let sp =
            if traced_now then Obs.start_span ~attrs:[ ("index", Obs.Int !index) ] kind
            else Obs.null_span
          in
          let start = now () in
          let answer = Runner.run job in
          let dur = now () -. start in
          Obs.end_span sp;
          records :=
            (job, answer, { index = !index; kind; traced = traced_now; start; dur;
                            ok = Ok (); ack = None; service = None; cached = false })
            :: !records;
          incr index)
        jobs
    in
    if traced_now then traced_block run else run ();
    incr block
  done;
  let wall = now () -. t0 in
  let rss = vm_hwm_mb "self" in
  let records =
    List.rev_map
      (fun (job, answer, rc) ->
        let ok =
          if rc.dur > job_deadline then Error "missed its deadline"
          else Runner.check job answer
        in
        (match ok with
        | Error e -> Printf.eprintf "perfbench: job %d (%s): %s\n%!" rc.index (S.describe job) e
        | Ok () -> ());
        { rc with ok })
      !records
  in
  (records, wall, rss)

(* ----- the served workload ----- *)

type served = { verdict : string; code : int; cached : bool; ms : float }

let retries = ref 0
let max_retries = 5

(* One client connection: submit, stamp the ack, await the result. *)
let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO (2.0 *. job_deadline);
  (fd, Unix.in_channel_of_descr fd)

let submit (fd, ic) ~id spec =
  let line =
    Obs.Json.to_string
      (P.request_to_json
         (P.Submit
            { P.id; spec; timeout = Some job_deadline; max_conflicts = None; priority = 0 }))
    ^ "\n"
  in
  let rec write off =
    if off < String.length line then
      write (off + Unix.write_substring fd line off (String.length line - off))
  in
  let rec attempt k =
    let start = now () in
    write 0;
    let rec await ack =
      match P.parse_response (input_line ic) with
      | Ok (P.Ack i) when i = id -> await (Some (now () -. start))
      | Ok (P.Result r) when r.id = id ->
        Ok ({ verdict = r.verdict; code = r.code; cached = r.cached; ms = r.ms }, ack)
      | Ok (P.Err { code = P.Overloaded; retry_after_s; _ }) when k < max_retries ->
        incr retries;
        Thread.delay (Option.value retry_after_s ~default:0.05);
        attempt (k + 1)
      | Ok (P.Err e) -> Error (P.error_code_to_string e.code ^ ": " ^ e.message)
      | Ok _ -> await ack
      | Error e -> Error ("unreadable response: " ^ e)
    in
    await None
  in
  attempt 0

type serve_result = {
  stats0 : Obs.Json.t;
  stats1 : Obs.Json.t;
  journal_records : int;
  bmc_computed : int;  (* served BMC jobs that missed the result cache *)
}

let journal_lines path =
  let ic = open_in path in
  let rec go n = match input_line ic with _ -> go (n + 1) | exception End_of_file -> n in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 0)

let stats d =
  match Server.Client.stats ~socket:d.socket () with
  | Ok j -> j
  | Error e -> die "stats op failed: %s" e

(* Two closed-loop clients, one connection each, share the stream. An
   item that repeats or extends an earlier one waits until that job has
   completed, so the daemon's hits do not depend on thread timing. *)
let run_served d warmup =
  let g = S.serve_gen ~exclude:warmup ~seed ~clients () in
  let lock = Mutex.create () and cond = Condition.create () in
  let finished = Hashtbl.create 4096 in
  let taken = ref 0 and results = ref [] in
  let stats0 = stats d and lines0 = journal_lines d.journal in
  let t0 = now () in
  let take () =
    Mutex.lock lock;
    let it =
      if now () -. t0 >= seconds && !taken mod S.serve_block = 0 then None
      else (
        incr taken;
        Some (S.next g))
    in
    Mutex.unlock lock;
    it
  in
  let wait_for = function
    | None -> ()
    | Some i ->
      Mutex.lock lock;
      while not (Hashtbl.mem finished i) do Condition.wait cond lock done;
      Mutex.unlock lock
  in
  let finish (it : S.item) r =
    Mutex.lock lock;
    Hashtbl.replace finished it.index ();
    results := r :: !results;
    Condition.broadcast cond;
    Mutex.unlock lock
  in
  let client () =
    let conn = ref None in
    let close () =
      Option.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) !conn;
      conn := None
    in
    let rec loop () =
      match take () with
      | None -> close ()
      | Some it ->
        wait_for it.S.after;
        let start = now () in
        let outcome =
          try
            let c =
              match !conn with
              | Some c -> c
              | None ->
                let c = connect d.socket in
                conn := Some c;
                c
            in
            submit c ~id:(Printf.sprintf "j%d" it.S.index) it.S.spec
          with e ->
            close ();
            Error ("transport: " ^ Printexc.to_string e)
        in
        finish it (it, start, now () -. start, outcome);
        loop ()
    in
    loop ()
  in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let rss = vm_hwm_mb (string_of_int d.pid) in
  let stats1 = stats d in
  let journal_records = journal_lines d.journal - lines0 in
  stop_daemon d;
  (* byte-equality against in-process runs of every distinct spec, on
     [clients] domains *)
  let distinct = Hashtbl.create 4096 in
  List.iter
    (fun ((it : S.item), _, _, _) -> Hashtbl.replace distinct (J.key it.spec) it.spec)
    !results;
  let specs = Array.of_list (Hashtbl.fold (fun k s acc -> (k, s) :: acc) distinct []) in
  let expected = Array.make (Array.length specs) None in
  let work w () =
    Array.iteri
      (fun i (_, s) ->
        if i mod clients = w then
          expected.(i) <-
            Some (try Ok (J.run ~budget:(budget ()) s) with e -> Error (Printexc.to_string e)))
      specs
  in
  let domains = List.init (clients - 1) (fun w -> Domain.spawn (work (w + 1))) in
  work 0 ();
  List.iter Domain.join domains;
  let reference = Hashtbl.create 4096 in
  Array.iteri (fun i (k, _) -> Hashtbl.replace reference k expected.(i)) specs;
  let bmc_computed = ref 0 in
  let records =
    List.rev_map
      (fun ((it : S.item), start, dur, outcome) ->
        let base =
          { index = it.index; kind = S.kind (S.Spec it.spec);
            traced = traced && it.index / S.serve_block mod 2 = 1; start; dur;
            ok = Ok (); ack = None; service = None; cached = false }
        in
        let rc =
          match outcome with
          | Error e -> { base with ok = Error e }
          | Ok (o, ack) ->
            if (not o.cached) && J.kind it.spec = "bmc" then incr bmc_computed;
            let ok =
              if dur > job_deadline then Error "missed its deadline"
              else if o.cached <> (it.role = S.Repeat) then
                Error (if o.cached then "served from the cache" else "missed the cache")
              else
                match Hashtbl.find reference (J.key it.spec) with
                | Some (Ok e) when e.J.verdict = o.verdict && e.J.code = o.code ->
                  Check.spec it.spec ~verdict:o.verdict ~code:o.code
                | Some (Ok e) ->
                  Error (Printf.sprintf "served %S (exit %d), in-process %S (exit %d)"
                           o.verdict o.code e.J.verdict e.J.code)
                | Some (Error e) -> Error ("in-process run raised " ^ e)
                | None -> Error "no in-process reference"
            in
            { base with ok; ack; cached = o.cached;
                        service = (if o.cached then None else Some (o.ms /. 1000.0)) }
        in
        (match rc.ok with
        | Error e ->
          Printf.eprintf "perfbench: job %d (%s, %s): %s\n%!" it.index
            (S.role_name it.role) (S.describe (S.Spec it.spec)) e
        | Ok () -> ());
        rc)
      !results
  in
  let records = List.sort (fun a b -> compare a.index b.index) records in
  ( records, wall, rss,
    { stats0; stats1; journal_records; bmc_computed = !bmc_computed } )

(* ----- metrics ----- *)

type metric = { name : string; unit : string; value : float }

let e2e ~setup ~records ~wall ~rss =
  let durs = List.map (fun r -> r.dur) records in
  [
    { name = "setup_s"; unit = "s"; value = quantile 0.5 setup };
    { name = "jobs_per_s"; unit = "jobs/s"; value = float_of_int (List.length records) /. wall };
    { name = "latency_p50_ms"; unit = "ms"; value = ms (quantile 0.5 durs) };
    { name = "latency_p90_ms"; unit = "ms"; value = ms (quantile 0.9 durs) };
    { name = "peak_rss_mb"; unit = "MB"; value = rss };
  ]

(* The per-layer metrics: name, unit, the workloads that exercise the
   layer, and the end-to-end metric it should move. *)
let layers =
  let all = [ "synth"; "verify" ] and ogis = [ "synth" ] and eng = [ "verify" ] in
  let kinds = [ "verify"; "serve" ] and srv = [ "serve" ] in
  [
    ("smt.sat.conflicts", "count/job", all, "synth jobs_per_s, latency_p90_ms");
    ("smt.sat.propagations", "count/job", all, "synth jobs_per_s, latency_p90_ms");
    ("smt.sat.restarts", "count/job", all, "synth jobs_per_s, latency_p90_ms");
    ("smt.sat.db_reductions", "count/job", all, "synth jobs_per_s, latency_p90_ms");
    ("smt.sat.solves", "count/job", all, "verify jobs_per_s");
    ("smt.check_ms", "ms/job", all, "synth jobs_per_s, latency_p90_ms");
    ("smt.sat.solve_ms", "ms/job", all, "synth jobs_per_s; verify jobs_per_s");
    ("smt.props_per_s", "1/s", all, "synth jobs_per_s, latency_p90_ms");
    ("smt.tseitin.clauses", "count/job", all, "synth latency_p50_ms; verify jobs_per_s");
    ("smt.tseitin.gates", "count/job", all, "synth latency_p50_ms; verify jobs_per_s");
    ("smt.bitblast.term_hit_ratio", "ratio", all, "synth latency_p50_ms; verify jobs_per_s");
    ("smt.bitblast.formula_hit_ratio", "ratio", all, "synth latency_p50_ms; verify jobs_per_s");
    ("smt.bitblast.shared_hit_ratio", "ratio", all, "synth latency_p50_ms; verify jobs_per_s");
    ("ogis.hd_ms", "ms", ogis, "synth latency_p50_ms, jobs_per_s");
    ("ogis.deobfuscate_ms", "ms", ogis, "synth latency_p90_ms, jobs_per_s");
    ("mc.bmc_ms", "ms", kinds, "verify latency_p50_ms; serve latency_p90_ms");
    ("mc.cegar_ms", "ms", kinds, "verify latency_p50_ms, latency_p90_ms");
    ("invgen.job_ms", "ms", eng, "verify latency_p50_ms");
    ("lstar.job_ms", "ms", eng, "verify latency_p90_ms");
    ("gametime.job_ms", "ms", kinds, "verify latency_p90_ms; serve latency_p90_ms");
    ("lstar.fix_ms", "ms/job", eng, "verify latency_p90_ms");
    ("lstar.hypothesis_ms", "ms/job", eng, "verify latency_p90_ms");
    ("gametime.basis_ms", "ms/job", eng, "verify latency_p90_ms");
    ("gametime.feasible_paths_ms", "ms/job", eng, "verify latency_p90_ms");
    ("invgen.simulate_ms", "ms/job", eng, "verify latency_p50_ms");
    ("induction.step_ms", "ms/job", eng, "verify latency_p50_ms");
    ("lstar.membership_queries", "count/job", eng, "verify latency_p90_ms");
    ("server.ack_ms_p50", "ms", srv, "serve latency_p50_ms, jobs_per_s");
    ("server.ack_ms_p90", "ms", srv, "serve latency_p90_ms, jobs_per_s");
    ("server.queue_ms_p50", "ms", srv, "serve latency_p90_ms, jobs_per_s");
    ("server.queue_ms_p90", "ms", srv, "serve latency_p90_ms, jobs_per_s");
    ("server.service_ms_p50", "ms", srv, "serve latency_p90_ms, jobs_per_s");
    ("server.service_ms_p90", "ms", srv, "serve latency_p90_ms, jobs_per_s");
    ("server.hit_ms_p50", "ms", srv, "serve latency_p50_ms, jobs_per_s");
    ("server.hit_ms_p90", "ms", srv, "serve latency_p50_ms, jobs_per_s");
    ("server.cache_hit_ratio", "ratio", srv, "serve latency_p50_ms, jobs_per_s");
    ("server.warm_hit_ratio", "ratio", srv, "serve latency_p90_ms, jobs_per_s");
    ("server.journal_records", "count/job", srv, "serve latency_p50_ms, jobs_per_s");
    ("server.shed", "count", srv, "serve jobs_per_s");
    ("server.retries", "count", srv, "serve jobs_per_s");
    ("gc.minor_mwords", "Mwords/job", all, "peak_rss_mb; synth jobs_per_s");
    ("gc.major_collections", "count/job", all, "peak_rss_mb; synth jobs_per_s");
    ("gc.top_heap_mb", "MB", all, "peak_rss_mb");
    ( "obs.trace_overhead_pct", "%", [ "synth"; "verify"; "serve" ],
      "traced against untraced blocks, same run" );
  ]

let per_layer ~records ~serve =
  let tr = List.filter (fun r -> r.traced) records in
  let n = float_of_int (max 1 (List.length tr)) in
  let per_job x = x /. n in
  let counter c =
    let rec find i = function
      | [] -> 0.0
      | c' :: rest -> if c' = c then deltas.(i) else find (i + 1) rest
    in
    find 0 counters
  in
  let ratio h m =
    let h = counter h and m = counter m in
    if h +. m > 0.0 then h /. (h +. m) else 0.0
  in
  let self name =
    List.fold_left (fun acc (s : Spans.t) -> if s.name = name then acc +. s.self else acc)
      0.0 !spans
  in
  let total name =
    List.fold_left (fun acc (s : Spans.t) -> if s.name = name then acc +. s.dur else acc)
      0.0 !spans
  in
  let kind_p50 k =
    ms (quantile 0.5 (List.filter_map (fun r -> if r.kind = k then Some r.dur else None) tr))
  in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let durs b = List.filter_map (fun r -> if r.traced = b then Some r.dur else None) records in
  let overhead = 100.0 *. ((mean (durs true) /. mean (durs false)) -. 1.0) in
  let stat key =
    match serve with
    | None -> 0.0
    | Some s ->
      let get j = Option.value ~default:0 (Option.bind (Obs.Json.member key j) Obs.Json.to_int) in
      float_of_int (get s.stats1 - get s.stats0)
  in
  let srv f = List.filter_map f tr in
  let acks = srv (fun r -> r.ack) in
  let services = srv (fun r -> r.service) in
  let queues =
    srv (fun r ->
        match r.ack, r.service with
        | Some a, Some s -> Some (Float.max 0.0 (r.dur -. a -. s))
        | _ -> None)
  in
  let hits = srv (fun r -> if r.cached then Some r.dur else None) in
  let gc = Gc.quick_stat () in
  let all_jobs = float_of_int (max 1 (List.length records)) in
  [
    ("smt.sat.conflicts", per_job (counter "sat.conflicts"));
    ("smt.sat.propagations", per_job (counter "sat.propagations"));
    ("smt.sat.restarts", per_job (counter "sat.restarts"));
    ("smt.sat.db_reductions", per_job (counter "sat.db_reductions"));
    ("smt.sat.solves", per_job (counter "sat.solves"));
    ("smt.check_ms", per_job (ms (self "smt.check")));
    ("smt.sat.solve_ms", per_job (ms (self "sat.solve")));
    ( "smt.props_per_s",
      let t = total "sat.solve" in
      if t > 0.0 then counter "sat.propagations" /. t else 0.0 );
    ("smt.tseitin.clauses", per_job (counter "tseitin.clauses"));
    ("smt.tseitin.gates", per_job (counter "tseitin.gates"));
    ("smt.bitblast.term_hit_ratio", ratio "bitblast.term_cache_hits" "bitblast.term_cache_misses");
    ( "smt.bitblast.formula_hit_ratio",
      ratio "bitblast.formula_cache_hits" "bitblast.formula_cache_misses" );
    ("smt.bitblast.shared_hit_ratio", ratio "bitblast.shared_hits" "bitblast.shared_misses");
    ("ogis.hd_ms", kind_p50 "ogis.hd");
    ("ogis.deobfuscate_ms", kind_p50 "ogis.deobfuscate");
    ("mc.bmc_ms", kind_p50 "mc.bmc");
    ("mc.cegar_ms", kind_p50 "mc.cegar");
    ("invgen.job_ms", kind_p50 "invgen.job");
    ("lstar.job_ms", kind_p50 "lstar.job");
    ("gametime.job_ms", kind_p50 "gametime.job");
    ("lstar.fix_ms", per_job (ms (self "lstar.fix")));
    ("lstar.hypothesis_ms", per_job (ms (self "lstar.hypothesis")));
    ("gametime.basis_ms", per_job (ms (self "gametime.basis")));
    ("gametime.feasible_paths_ms", per_job (ms (self "gametime.feasible_paths")));
    ("invgen.simulate_ms", per_job (ms (self "invgen.simulate")));
    ("induction.step_ms", per_job (ms (self "induction.step")));
    ("lstar.membership_queries", per_job (counter "lstar.membership_queries"));
    ("server.ack_ms_p50", ms (quantile 0.5 acks));
    ("server.ack_ms_p90", ms (quantile 0.9 acks));
    ("server.queue_ms_p50", ms (quantile 0.5 queues));
    ("server.queue_ms_p90", ms (quantile 0.9 queues));
    ("server.service_ms_p50", ms (quantile 0.5 services));
    ("server.service_ms_p90", ms (quantile 0.9 services));
    ("server.hit_ms_p50", ms (quantile 0.5 hits));
    ("server.hit_ms_p90", ms (quantile 0.9 hits));
    ( "server.cache_hit_ratio",
      let h = stat "cache_hits" and m = stat "cache_misses" in
      if h +. m > 0.0 then h /. (h +. m) else 0.0 );
    ( "server.warm_hit_ratio",
      match serve with
      | Some s when s.bmc_computed > 0 -> stat "warm_hits" /. float_of_int s.bmc_computed
      | _ -> 0.0 );
    ( "server.journal_records",
      match serve with Some s -> float_of_int s.journal_records /. all_jobs | None -> 0.0 );
    ("server.shed", stat "shed");
    ("server.retries", float_of_int !retries);
    ("gc.minor_mwords", per_job (!gc_minor /. 1e6));
    ("gc.major_collections", per_job (float_of_int !gc_major));
    ("gc.top_heap_mb", float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    ("obs.trace_overhead_pct", overhead);
  ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let stop _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Obs.set_quiet true;
  let st = setup () in
  let own = now () -. t_start in
  if probe then (
    Option.iter stop_daemon st.daemon;
    Printf.printf "%.9f\n" own;
    exit 0);
  let before = List.init setup_probes (fun _ -> probe_setup ()) in
  let records, wall, rss, serve =
    match st.daemon with
    | Some d ->
      let records, wall, rss, s = run_served d st.warmup in
      (records, wall, rss, Some s)
    | None ->
      let records, wall, rss =
        run_blocks (if workload = "synth" then S.synth_block else S.verify_block)
      in
      (records, wall, rss, None)
  in
  let setup_samples = (own :: before) @ List.init setup_probes (fun _ -> probe_setup ()) in
  let attempted = List.length records in
  let failed = List.length (List.filter (fun r -> Result.is_error r.ok) records) in
  Printf.printf "workload %s seed %d: %d jobs in %.3f s, %d failed; latency samples %d\n"
    workload seed attempted wall failed attempted;
  Printf.printf "set-up samples (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup_samples));
  let metrics =
    if not traced then e2e ~setup:setup_samples ~records ~wall ~rss
    else
      let values = per_layer ~records ~serve in
      List.map
        (fun (name, unit, where, moves) ->
          let value = List.assoc name values in
          if List.mem workload where then
            Printf.printf "layer %-30s %14.4f %-10s -> %s\n" name value unit moves
          else
            Printf.printf "layer %-30s %14s %-10s    not exercised by %s (reported as 0)\n"
              name "-" unit workload;
          { name; unit; value = (if List.mem workload where then value else 0.0) })
        layers
  in
  if not traced then
    List.iter
      (fun m -> Printf.printf "metric %-16s %14.4f %s\n" m.name m.value m.unit)
      metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_number m.value) m.unit)
          metrics))
