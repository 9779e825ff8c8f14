(** The transport loop of [bbc serve]: one poll(2) event loop that
    owns every listener (Unix-domain and/or TCP — see {!Net}) and
    client socket, reads line-delimited requests, and writes responses
    back per connection in admission order.  Requests execute on one of
    two kinds of shard:

    - [workers = 1] (the default daemon): one in-process {!Engine}.
      Nothing is forked or framed; each line goes straight to
      {!Engine.submit}, so the engine itself answers [ping], [stats]
      and [shutdown] and mints session ids, and one
      {!Engine.run_batch} runs after every poll wake-up.  The loop never
      sleeps while the engine has queued work.
    - [workers = N > 1]: N forked {!Worker} processes, each owning a
      private engine (admission queue, deadline expiry, backpressure,
      session store).  Each request is routed by {!Shard.of_session} on
      its session id, over the framed socketpair protocol in {!Frame}.

    {!run_stdio} is the separate blocking loop behind [--stdio].

    {1 Routing (N > 1)}

    - Session-bound requests hash their ["session"] param.
    - [gen] / [load_instance] have no session yet, so the front mints
      the id ({!Shard.mint} on a global counter), picks the worker from
      its hash, and forwards the request with the id attached as the
      ["_session"] param (workers run with [assign_ids = true]); every
      later request for that session hashes to the same worker.
    - [ping] and [shutdown] are answered at the front; [stats] fans out
      to all workers and the per-worker payloads are summed field-wise
      (plus front-tier fields: [workers], [respawns], [connections]).

    {1 Guarantees}

    Per connection, responses to admitted requests are released in
    admission order even when they complete on different workers: each
    request takes a token into the connection's reorder queue, and a
    ready response is held until every earlier token has answered.
    Immediate rejections — malformed JSON and draining at the front,
    and on the in-process shard every engine [`Reply] (overload
    included) — jump that queue; worker-side rejections such as
    overload come back as ordinary answers, in order.  Within one
    engine its own guarantees are unchanged.

    Per-connection buffers are bounded (see {!Linebuf}): a request line
    above 8 MiB is answered with [bad_request] and the connection
    closed, and a client whose pending output would pass 256 MiB — it
    stops reading while requests keep coming — is dropped.

    {1 Worker lifecycle (N > 1)}

    A worker that dies unexpectedly is detected by EOF on its pipe; its
    in-flight requests are answered with [internal] errors, and a fresh
    worker is forked onto the same shard (policy: respawn, sessions
    lost — later requests for them get [unknown_session]).  Other
    shards are unaffected.

    {1 Drain}

    SIGINT/SIGTERM (or an executed [shutdown]) triggers a graceful
    drain: listeners close, new requests are answered [shutting_down],
    every admitted request is executed and its response flushed, and
    [run] returns — the caller then flushes metrics/trace sinks and
    exits 0.  With workers, every outstanding token is resolved, each
    worker receives a [Stop] frame and is reaped, and [run] raises
    [Failure] if one exited non-zero. *)

type handle
(** Control surface handed to [on_ready] (used by tests and the bench
    harness). *)

val worker_pids : handle -> int list
(** Live worker pids, index order; [[]] for the in-process shard. *)

val request_stop : handle -> unit
(** Ask the loop to begin its graceful drain (as if signalled). *)

val run :
  ?on_ready:(handle -> unit) ->
  engine:Engine.config ->
  workers:int ->
  Net.listener list ->
  unit
(** Serve the already-bound listeners until shutdown; blocks, and
    closes the listeners on exit.  [workers >= 1].  [on_ready] fires
    once the loop is about to accept (listeners are bound by the
    caller, so ephemeral TCP ports are already resolved).  SIGINT /
    SIGTERM handlers are installed and SIGPIPE ignored for the duration
    of the call.

    With [workers = 1] the engine runs [engine] unchanged.  With
    [N > 1] the worker config is [engine] with [assign_ids = true] and,
    when [engine.jobs] is [None], [jobs = Some 1]: parallelism comes
    from the process shards, and [N] workers each defaulting to a full
    domain pool would oversubscribe the machine (pass an explicit
    [jobs] to compose within-worker pools with sharding).  [N > 1]
    forks, so it must be called before the process creates any
    domains. *)

val run_stdio : engine:Engine.config -> unit
(** One implicit connection on stdin/stdout (the cram tests): each
    line is submitted and answered by its own batch, in admission
    order; EOF, SIGINT/SIGTERM or an executed [shutdown] drains the
    engine and returns. *)
