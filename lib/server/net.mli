(** Transport endpoints shared by the serving loop ({!Front}) and the
    load generator: Unix-domain socket paths and TCP host:port pairs,
    with the listener lifecycle (bind/listen/accept/cleanup) in one
    place so every component treats stale sockets, [SO_REUSEADDR] and
    [TCP_NODELAY] identically. *)

type endpoint =
  | Unix_path of string  (** Unix-domain socket at this path *)
  | Tcp of string * int  (** host, port *)

val endpoint_to_string : endpoint -> string
(** ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

val parse_tcp : string -> (string * int, string) result
(** Parse a ["HOST:PORT"] spec (host defaults to 127.0.0.1 when the
    spec is just [":PORT"] or ["PORT"]).  Port 0 asks the kernel for a
    free port — {!listen_tcp} reports the resolved one. *)

type listener = { l_fd : Unix.file_descr; l_endpoint : endpoint }

val listen_unix : ?backlog:int -> string -> listener
(** Bind and listen on a Unix-domain socket path, non-blocking.  A file
    already at the path is connect-probed first: a live server answering
    on it raises [Failure] (never steal a running daemon's socket); a
    stale file from a crashed server is unlinked and replaced. *)

val listen_tcp : ?backlog:int -> host:string -> port:int -> unit -> listener
(** Bind and listen on [host:port] with [SO_REUSEADDR], non-blocking.
    [port = 0] binds an ephemeral port; the listener's endpoint carries
    the resolved one.  Raises [Failure] on resolution or bind errors. *)

val accept : listener -> Unix.file_descr option
(** Accept one pending connection, non-blocking ([None] when the queue
    is empty).  TCP connections get [TCP_NODELAY] — the protocol is
    small request/response lines, where Nagle costs milliseconds. *)

val close_listener : listener -> unit
(** Close the listen fd; for Unix-domain listeners also unlink the
    socket path.  Never raises. *)

val connect : endpoint -> (Unix.file_descr, string) result
(** Client-side blocking connect ([TCP_NODELAY] set on TCP).  The
    returned descriptor is in blocking mode; callers running event
    loops set non-blocking themselves. *)
