(** Closed-loop load generator for [bbc serve], over Unix-domain or TCP
    endpoints.

    A setup connection creates [sessions] identical sessions ([gen] on
    the same {!Bbc.Catalog} construction — distinct sessions are
    distinct groups of an engine batch, so multiple sessions spread
    load over the server's domain pool).  The load phase then opens [conns] concurrent connections
    and drives them all from a {b single-threaded poll(2) event loop}
    — one OS thread regardless of connection count, which is what lets
    the generator hold thousands of connections open (a
    thread-per-client design dies at a few hundred).  Each connection
    is closed-loop: one request in flight, the next issued when the
    response lands, so concurrency equals the connection count.

    Besides throughput and latency quantiles, the run cross-checks
    {b consistency}: sessions are never mutated and built identically,
    so every response to the same (method, node) query — across all
    connections, interleavings, and sessions — must be
    byte-identical.  Any divergence (or any unparseable / misdelivered
    response) is a protocol error; the soak gate in
    scripts/check_server.sh requires zero. *)

type method_stats = {
  meth : string;
  count : int;
  m_p50_ms : float;
  m_p99_ms : float;
}

type summary = {
  conns : int;
  sessions : int;
  requests : int;  (** responses received across all connections *)
  errors : int;  (** structured error responses *)
  protocol_errors : int;  (** unparseable/mismatched/inconsistent responses *)
  elapsed_s : float;
  req_per_s : float;
  p50_ms : float;
  p99_ms : float;
  by_method : method_stats list;
  consistent : bool;  (** identical answers for identical queries *)
}

val summary_to_json : summary -> Bbc.Json.t

val run :
  endpoint:Net.endpoint ->
  conns:int ->
  total:int ->
  ?sessions:int ->
  ?name:string ->
  ?n:int ->
  ?deadline_ms:int ->
  ?duration_s:float ->
  unit ->
  (summary, string) result
(** Run the workload: [total] requests spread over [conns] concurrent
    closed-loop connections against [sessions] (default 1) fresh
    sessions built from catalog construction [name] (default ["ring"])
    of size [n] (default 12).  [deadline_ms], when given, is attached
    to every request (timeout responses count as [errors], not
    protocol errors).  [duration_s] stops issuing new requests once the
    wall clock passes it, whichever of the two budgets runs out first —
    used by the nightly soak.  [Error _] means the harness itself
    failed (connect or session setup), not that the server
    misbehaved. *)

val request_shutdown : endpoint:Net.endpoint -> (unit, string) result
(** Send a [shutdown] request on a fresh connection and wait for its
    acknowledgement. *)
