(* A deliberately tiny HTTP/1.0-over-Unix-socket server: one request
   per connection, first line parsed for the target, response written
   whole, connection closed. That is all a scraper (curl --unix-socket,
   Prometheus, [sciduction_cli stats]) needs, and it keeps the server a
   single select loop on one background systhread — a scrape never
   touches the domains doing the solving, and the thread itself (like
   the ticker's, see live.ml) adds no stop-the-world participant. *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* ----- page renderers ----- *)

let sanitize name =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
    name

(* ----- SIGTERM socket cleanup -----

   A daemon killed by the service manager gets SIGTERM, not a chance to
   run its [Fun.protect] finalizers, and would leave a stale socket file
   behind. Every live Unix-socket path (stats endpoints here, the
   verification server's listener) registers itself; a process-wide
   handler — installed lazily on first registration, so ordinary runs
   never touch signal state — unlinks them all and exits with the
   conventional 128+15. OCaml runs signal handlers at safe points on
   the main thread, so the unlinks race nothing. *)

let cleanup_lock = Mutex.create ()
let cleanup_paths : string list ref = ref []
let sigterm_installed = ref false

let on_sigterm _ =
  let paths =
    Mutex.lock cleanup_lock;
    let ps = !cleanup_paths in
    cleanup_paths := [];
    Mutex.unlock cleanup_lock;
    ps
  in
  List.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ()) paths;
  exit 143

let unlink_on_sigterm path =
  Mutex.lock cleanup_lock;
  if not (List.mem path !cleanup_paths) then
    cleanup_paths := path :: !cleanup_paths;
  if not !sigterm_installed then begin
    sigterm_installed := true;
    try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_sigterm)
    with Invalid_argument _ | Sys_error _ -> ()
  end;
  Mutex.unlock cleanup_lock

let forget_unlink_on_sigterm path =
  Mutex.lock cleanup_lock;
  cleanup_paths := List.filter (fun p -> p <> path) !cleanup_paths;
  Mutex.unlock cleanup_lock

let latest_metrics ticker =
  match Live.latest ticker with
  | Some s -> s.Live.metrics
  | None -> Metrics.snapshot ()

let prometheus_page ticker =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf fmt in
  List.iter
    (fun (name, v) ->
      (* The registry keeps integer-friendly units (the server observes
         request latency in milliseconds); the exposition follows the
         Prometheus base-unit convention, so the request histogram is
         renamed and rescaled to seconds on the way out. *)
      let n, scale =
        match name with
        | "server.request_ms" -> ("sciduction_request_seconds", 1e-3)
        | "server.requests_inflight" -> ("sciduction_requests_inflight", 1.0)
        | _ -> ("sciduction_" ^ sanitize name, 1.0)
      in
      match v with
      | Metrics.Counter c -> line "# TYPE %s counter\n%s %d\n" n n c
      | Metrics.Gauge g -> line "# TYPE %s gauge\n%s %g\n" n n g
      | Metrics.Histogram { count; sum; min = _; max = _; buckets } ->
        line "# TYPE %s histogram\n" n;
        let cum = ref 0 in
        List.iter
          (fun (le, k) ->
            cum := !cum + k;
            if scale = 1.0 then line "%s_bucket{le=\"%d\"} %d\n" n le !cum
            else
              line "%s_bucket{le=\"%g\"} %d\n" n
                (float_of_int le *. scale)
                !cum)
          buckets;
        line "%s_bucket{le=\"+Inf\"} %d\n" n count;
        if scale = 1.0 then line "%s_sum %d\n" n sum
        else line "%s_sum %g\n" n (float_of_int sum *. scale);
        line "%s_count %d\n" n count)
    (latest_metrics ticker);
  let rate_series label rs =
    if rs <> [] then begin
      line "# TYPE %s gauge\n" label;
      List.iter (fun (name, r) -> line "%s{metric=%S} %.6f\n" label name r) rs
    end
  in
  rate_series "sciduction_rate" (Live.rates ticker);
  rate_series "sciduction_window_rate" (Live.window_rates ticker);
  let loops = Heartbeat.active () in
  if loops <> [] then begin
    let series label value =
      line "# TYPE %s gauge\n" label;
      List.iter
        (fun st -> line "%s{loop=%S} %s\n" label st.Heartbeat.hb_loop (value st))
        loops
    in
    let now = Unix.gettimeofday () in
    series "sciduction_loop_iteration" (fun st ->
        string_of_int st.Heartbeat.hb_iteration);
    series "sciduction_loop_stalled" (fun st ->
        if st.Heartbeat.hb_stalled then "1" else "0");
    series "sciduction_loop_seconds_since_advance" (fun st ->
        Printf.sprintf "%.3f" (now -. st.Heartbeat.hb_last_advance))
  end;
  Buffer.contents buf

let json_of_loop now st =
  Json.Obj
    [
      ("loop", Json.String st.Heartbeat.hb_loop);
      ("iteration", Json.Int st.Heartbeat.hb_iteration);
      ("beats", Json.Int st.Heartbeat.hb_beats);
      ( "seconds_since_advance",
        Json.Float (now -. st.Heartbeat.hb_last_advance) );
      ("stalled", Json.Bool st.Heartbeat.hb_stalled);
      ("attrs", Json.Obj st.Heartbeat.hb_attrs);
    ]

let json_page ticker =
  let now = Unix.gettimeofday () in
  let rates rs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) rs) in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "sciduction.stats/1");
         ( "ts",
           Json.Float
             (match Live.latest ticker with
             | Some s -> s.Live.ts
             | None -> now) );
         ("interval_s", Json.Float (Live.interval_s ticker));
         ("samples", Json.Int (List.length (Live.samples ticker)));
         ("window_s", Json.Float (Live.window_seconds ticker));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (k, v) -> (k, Metrics.to_json v))
                (latest_metrics ticker)) );
         ("rates", rates (Live.rates ticker));
         ("window_rates", rates (Live.window_rates ticker));
         ( "loops",
           Json.List (List.map (json_of_loop now) (Heartbeat.active ())) );
       ])
  ^ "\n"

(* ----- server ----- *)

type t = {
  sd_path : string;
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable thread : Thread.t option;
  mutable stopped : bool;
}

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let handle_client ticker fd =
  (* a stuck or hostile client may cost this one bounded read, never
     the select loop forever *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0
   with Unix.Unix_error _ -> ());
  let buf = Bytes.create 1024 in
  let n = try Unix.read fd buf 0 1024 with Unix.Unix_error _ -> 0 in
  let first_line =
    let req = Bytes.sub_string buf 0 (max 0 n) in
    match String.index_opt req '\n' with
    | Some i -> String.trim (String.sub req 0 i)
    | None -> String.trim req
  in
  let target =
    match String.split_on_char ' ' first_line with
    | _meth :: tgt :: _ when tgt <> "" -> tgt
    | _ -> "/json"
  in
  let resp =
    match target with
    | "/metrics" ->
      response ~status:"200 OK" ~content_type:"text/plain; version=0.0.4"
        (prometheus_page ticker)
    | "/" | "/json" ->
      response ~status:"200 OK" ~content_type:"application/json"
        (json_page ticker)
    | "/healthz" ->
      (* liveness only: reachable server = serving process alive; stall
         diagnostics stay on /json where they carry per-loop detail *)
      response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
    | _ ->
      response ~status:"404 Not Found" ~content_type:"text/plain"
        (Printf.sprintf "unknown target %s; try /json, /metrics or /healthz\n"
           target)
  in
  (try write_all fd resp with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve t ticker =
  let buf = Bytes.create 1 in
  let rec loop () =
    match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.0) with
    | readable, _, _ when List.mem t.stop_r readable ->
      ignore (Unix.read t.stop_r buf 0 1 : int)
    | readable, _, _ when List.mem t.listen_fd readable ->
      (match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ -> handle_client ticker fd
      | exception Unix.Unix_error _ -> ());
      loop ()
    | _ -> loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* ----- claiming a socket path ----- *)

type socket_error =
  | Live_server of string
  | Not_a_socket of string
  | Socket_failure of string

let socket_error_message = function
  | Live_server path -> Printf.sprintf "a live server is already on %s" path
  | Not_a_socket path ->
    Printf.sprintf "%s exists and is not a socket; refusing to replace it" path
  | Socket_failure msg -> msg

(* A leftover socket file from a crashed run must not block a restart,
   but a live server's socket must: probe with a connect before
   unlinking, and never unlink anything that is not a socket. *)
let claim_socket path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Socket_failure
         (Printf.sprintf "cannot stat %s: %s" path (Unix.error_message e)))
  | st when st.Unix.st_kind <> Unix.S_SOCK -> Error (Not_a_socket path)
  | _ -> (
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if live then Error (Live_server path)
    else
      match Unix.unlink path with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
        Error
          (Socket_failure
             (Printf.sprintf "cannot replace stale socket %s: %s" path
                (Unix.error_message e))))

let start ~path ~ticker () =
  (* a dead client mid-write must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match claim_socket path with
  | Error _ as e -> e
  | Ok () -> (
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 16
    with
    | () ->
      let stop_r, stop_w = Unix.pipe ~cloexec:true () in
      let t =
        { sd_path = path; listen_fd = fd; stop_r; stop_w; thread = None;
          stopped = false }
      in
      t.thread <- Some (Thread.create (fun () -> serve t ticker) ());
      unlink_on_sigterm path;
      Ok t
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Socket_failure
           (Printf.sprintf "cannot serve stats on %s: %s" path
              (Unix.error_message err))))

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1 : int);
    Option.iter Thread.join t.thread;
    t.thread <- None;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; t.stop_r; t.stop_w ];
    forget_unlink_on_sigterm t.sd_path;
    (try Unix.unlink t.sd_path with Unix.Unix_error _ -> ())
  end

(* ----- client ----- *)

let fetch ~path ?(target = "/json") () =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | exception Unix.Unix_error (err, _, _) ->
    close ();
    Error
      (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message err))
  | () -> (
    match
      write_all fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target);
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf
    with
    | exception Unix.Unix_error (err, _, _) ->
      close ();
      Error (Printf.sprintf "scrape of %s failed: %s" path
               (Unix.error_message err))
    | raw -> (
      close ();
      let header_end = ref None in
      let n = String.length raw in
      (try
         for i = 0 to n - 4 do
           if !header_end = None && String.sub raw i 4 = "\r\n\r\n" then
             header_end := Some i
         done
       with Invalid_argument _ -> ());
      match !header_end with
      | None -> Error "malformed response (no header terminator)"
      | Some i ->
        let status_line =
          match String.index_opt raw '\r' with
          | Some j -> String.sub raw 0 j
          | None -> raw
        in
        let body = String.sub raw (i + 4) (n - i - 4) in
        (match String.split_on_char ' ' status_line with
        | _http :: "200" :: _ -> Ok body
        | _http :: code :: _ ->
          Error (Printf.sprintf "server answered %s: %s" code (String.trim body))
        | _ -> Error "malformed response (no status line)")))
