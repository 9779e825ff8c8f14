(** Endpoint implementations, shared by the batch scheduler and the
    in-process tests.  Handlers are pure request -> result functions
    over the session store; queueing, deadlines, and backpressure live
    in {!Engine}. *)

type env = {
  sessions : Session.store;
  now : unit -> int;  (** monotonic ns *)
  stats : unit -> Bbc.Json.t;  (** scheduler counters, served live *)
  request_shutdown : unit -> unit;  (** the [shutdown] endpoint's hook *)
  assign_ids : bool;
      (** ignored: session ids are always minted by the store.  Kept
          only because the benchmark harness in [bench/e2e] still
          builds this record with it; it goes when that harness drops
          the field. *)
}

val handle :
  env -> Protocol.request -> (Bbc.Json.t, Protocol.error_code * string) result
(** Execute one request.  Never raises: handler exceptions become
    [Internal] errors. *)
