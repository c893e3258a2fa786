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

val claim_socket : string -> (unit, socket_error) result
(** Make a Unix-socket path free to bind: [Ok] when nothing is there or
    a stale socket file (left by a crashed run: nothing accepts on it)
    was removed. A live server's socket is probed with a connect and
    refused, never taken over. Both socket servers — this endpoint and
    the verification daemon — claim their path through here. *)

val start :
  path:string -> ticker:Live.t -> unit -> (t, socket_error) result
(** Claim ({!claim_socket}), bind and listen on Unix-domain socket
    [path] and serve scrapes from a background systhread until
    {!stop}. *)

val stop : t -> unit
(** Stop the server, join its thread and remove the socket file.
    Idempotent. *)

val unlink_on_sigterm : string -> unit
(** Register a Unix-socket path to be unlinked if the process receives
    SIGTERM (the service-manager kill path, which bypasses [Fun.protect]
    finalizers). The process-wide handler is installed lazily on first
    registration and exits with the conventional status 143 after the
    unlinks. {!start} registers its own path automatically; the
    verification server registers its listener socket too. *)

val forget_unlink_on_sigterm : string -> unit
(** Drop a path from the SIGTERM cleanup list (after an orderly unlink
    on the normal shutdown path). *)

val fetch : path:string -> ?target:string -> unit -> (string, string) result
(** Client side, for [sciduction_cli stats] and tests: connect to the
    socket at [path], request [target] (default [/json]) and return the
    response body. *)

val json_page : Live.t -> string
val prometheus_page : Live.t -> string
(** The page renderers, exposed for tests. *)
