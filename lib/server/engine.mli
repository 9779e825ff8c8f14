(** Request scheduler: bounded admission queue, deadline enforcement,
    backpressure, and batch execution on the {!Bbc_parallel} domain
    pool.

    {1 Life of a request}

    {!submit} parses a raw line in the transport thread.  Malformed
    requests, unknown methods, overload ([queue depth >= queue_cap] —
    the backpressure high-water mark) and post-shutdown admissions are
    answered immediately; everything else is queued.  {!run_batch}
    drains up to [max_batch] queued requests, expires the ones whose
    [deadline_ms] has passed (structured [timeout] error — an expired
    request never occupies a worker), groups the rest {b by session}
    (a session is single-domain mutable state, so
    same-session requests execute sequentially in admission order
    while distinct sessions fan out over the pool), executes, and
    returns responses in admission order.

    {1 Determinism}

    Responses depend only on request payloads and per-session admission
    order, never on the pool width — the engine's analogue of
    {!Bbc_parallel}'s jobs-invariance.  With [jobs = 1], execution
    order itself is deterministic (groups in first-admission order),
    which the cram tests rely on.

    {1 Observability}

    Exact scheduler counters (served per endpoint, timeouts, overload
    rejections, batches) are plain atomics served by the [stats]
    endpoint; latency histograms ([server.latency.<method>], log2
    buckets, queue wait included) and mirror counters flow through
    {!Bbc_obs} for [--metrics] / [--trace-out]. *)

type config = {
  queue_cap : int;  (** admission queue bound; default 256 *)
  max_batch : int;  (** requests drained per batch; default 64 *)
  jobs : int option;  (** pool width; [None] = {!Bbc_parallel.default_jobs} *)
  session_cap : int;  (** live-session bound; default 1024 *)
  session_ttl_ms : int;
      (** idle TTL for at-capacity session eviction (see {!Session.add});
          default 10 min, [0] disables eviction *)
  now : unit -> int;  (** monotonic ns; injectable for deadline tests *)
}

val default_config : unit -> config

type t

val create : config -> t

val submit : t -> client:int -> string -> [ `Queued | `Reply of string ]
(** Admit one raw request line from connection [client].  [`Reply] is an
    immediate response (parse error, unknown method, overload,
    shutting down) the transport must deliver itself. *)

val run_batch : t -> (int * string) list
(** Execute one batch; [(client, response line)] in admission order.
    Empty when nothing is queued. *)

val pending : t -> int
(** Current admission-queue depth. *)

val begin_shutdown : t -> unit
(** Stop admitting: subsequent {!submit}s get [shutting_down].  Queued
    work is kept — drain it with {!drain} or repeated {!run_batch}. *)

val shutdown_requested : t -> bool
(** True once a [shutdown] request was executed (the endpoint's hook);
    the transport loop polls this to begin its graceful exit. *)

val drain : t -> (int * string) list
(** Run batches until the queue is empty (responses in admission
    order).  Used on graceful shutdown. *)

val sessions : t -> Session.store
