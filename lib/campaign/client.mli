(** Via-server execution: fan campaign units out over [bbc serve].

    Each of [threads] worker threads holds one connection to the
    endpoint and drives synchronous [run_unit] RPCs; [run_unit] names
    no session, so the daemon's engine runs the units of one batch in
    parallel on its domain pool.  Transport failures and
    backpressure errors ([overloaded]/[timeout]/[shutting_down]) are
    retried with exponential backoff on a fresh connection; after
    [retries] extra attempts — or on any non-retryable server error —
    the unit is quarantined as {!Checkpoint.Failed}.  Because trials
    are deterministic, the entries returned are identical to in-process
    execution whenever the server is healthy. *)

type opts = { threads : int; retries : int; backoff_ms : int }

val endpoint_of_string : string -> (Bbc_server.Net.endpoint, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], a bare ["HOST:PORT"], or a bare
    socket path. *)

val run_units :
  endpoint:Bbc_server.Net.endpoint ->
  opts:opts ->
  trial_of:(int -> Bbc.Trial.t) ->
  int array ->
  Checkpoint.entry list
(** Execute the given unit ids; one entry per id, in unspecified
    order.  Never raises on server/transport trouble — failed units
    come back quarantined. *)
