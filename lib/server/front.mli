(** The transport loop of [bbc serve]: one poll(2) event loop that
    owns every listener (Unix-domain and/or TCP — see {!Net}) and
    client socket, reads line-delimited requests, and hands them to one
    in-process {!Engine}.  Nothing is forked or framed: each line goes
    straight to {!Engine.submit}, so the engine itself answers [ping],
    [stats] and [shutdown] and mints session ids, and one
    {!Engine.run_batch} runs after every poll wake-up.  The loop never
    sleeps while the engine has queued work.  Distinct sessions run in
    parallel inside that batch, over the engine's domain pool.

    {!run_stdio} is the separate blocking loop behind [--stdio].

    {1 Guarantees}

    Per connection, responses to admitted requests go out in admission
    order: the connection id is the engine's client id, and
    {!Engine.run_batch} returns its answers in admission order.
    Immediate answers — every engine [`Reply]: malformed JSON, unknown
    method, overload, draining — go out at once, ahead of anything
    still queued.

    Per-connection buffers are bounded (see {!Linebuf}): a request line
    above 8 MiB is answered with [bad_request] and the connection
    closed, and a client whose pending output would pass 256 MiB — it
    stops reading while requests keep coming — is dropped.

    {1 Drain}

    SIGINT/SIGTERM (or an executed [shutdown]) triggers a graceful
    drain: listeners close, the engine stops admitting, every admitted
    request is executed and its response flushed, and [run] returns —
    the caller then flushes metrics/trace sinks and exits 0. *)

val run :
  ?on_ready:(unit -> unit) ->
  engine:Engine.config ->
  Net.listener list ->
  unit
(** Serve the already-bound listeners until shutdown; blocks, and
    closes the listeners on exit.  [on_ready] fires once the loop is
    about to accept (listeners are bound by the caller, so ephemeral
    TCP ports are already resolved).  SIGINT / SIGTERM handlers are
    installed and SIGPIPE ignored for the duration of the call. *)

val run_stdio : engine:Engine.config -> unit
(** One implicit connection on stdin/stdout (the cram tests): each
    line is submitted and answered by its own batch, in admission
    order; EOF, SIGINT/SIGTERM or an executed [shutdown] drains the
    engine and returns. *)
