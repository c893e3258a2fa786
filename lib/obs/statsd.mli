(** Scrapeable stats endpoint: a tiny HTTP/1.0 server on a Unix-domain
    socket that serves the {!Live} ticker's snapshots, rate windows and
    per-loop heartbeat/stall status while a run is in flight.

    Two targets:
    - [GET /metrics] — Prometheus text exposition (names sanitized to
      [sciduction_*]; histograms as cumulative [_bucket{le=...}] series,
      rates as [sciduction_rate{metric=...}] gauges, heartbeats as
      [sciduction_loop_*{loop=...}]);
    - [GET /json] (also [/]) — the same data in the {!Json} form traces
      use: the latest registry snapshot, per-interval and whole-window
      rates, and loop statuses.

    One request per connection, served sequentially from a dedicated
    domain; a scrape costs the run nothing but the snapshot read. This
    is the stats endpoint the future sciduction-as-a-service daemon
    mounts unchanged (ROADMAP item 1). *)

type t

(** Why a Unix-socket path could not be taken. *)
type socket_error =
  | Live_server of string
      (** a server answers on this path; it is left untouched *)
  | Not_a_socket of string
      (** the path exists and is not a socket; it is never unlinked *)
  | Socket_failure of string
      (** a stat, unlink, bind or listen failure (bad directory, path
          too long for a socket address, ...), described *)

val socket_error_message : socket_error -> string

(** {2 Unix-socket listener}

    The accept loop both socket servers — this endpoint and the
    verification daemon — run on. *)

type listener

val listen : string -> (listener, socket_error) result
(** Take a Unix-socket path, bind and listen on it. A stale socket file
    (left by a crashed run: nothing accepts on it) is replaced; a live
    server's socket is probed with a connect and refused, never taken
    over; a path that is not a socket is never unlinked. Also ignores
    SIGPIPE (a client dying mid-write must not kill the process) and
    registers the path to be unlinked if the process gets SIGTERM,
    which bypasses [Fun.protect] finalizers; that handler is installed
    on the first registration and exits with status 143. *)

val accept_loop : listener -> (Unix.file_descr -> unit) -> unit
(** Start the background systhread that accepts connections and hands
    each to the callback, until {!interrupt} or {!close_listener}. *)

val interrupt : listener -> unit
(** Wake the accept loop and make it return. Only writes one byte to a
    pipe, so it may be called from a signal handler. *)

val close_listener : listener -> unit
(** Stop the accept loop, join its thread, close the socket and remove
    the socket file. Idempotent. *)

(** {2 Stats endpoint} *)

val start :
  path:string -> ticker:Live.t -> unit -> (t, socket_error) result
(** {!listen} on [path] and serve scrapes from the accept loop until
    {!stop}. *)

val stop : t -> unit
(** {!close_listener}: stop the server, join its thread and remove the
    socket file. Idempotent. *)

val fetch : path:string -> ?target:string -> unit -> (string, string) result
(** Client side, for [sciduction_cli stats] and tests: connect to the
    socket at [path], request [target] (default [/json]) and return the
    response body. *)

val json_page : Live.t -> string
val prometheus_page : Live.t -> string
(** The page renderers, exposed for tests. *)
