(** Session-id sharding for the multi-worker front tier.

    Every request naming a session is routed to worker
    [of_session ~workers id]; because the function is pure and stable
    across runs, processes and OCaml versions (FNV-1a, not the
    seed-randomizable [Hashtbl.hash]), a session created on one worker
    is found there by every later request, with no shared routing
    table.  New sessions get their id minted {e by the front} so the
    worker choice is already determined by the hash at creation time. *)

val fnv1a64 : string -> int64
(** 64-bit FNV-1a of the bytes of the string.  Deterministic. *)

val of_session : workers:int -> string -> int
(** Worker index in [0, workers) for this session id.  The empty
    string (used for requests that should name a session but do not)
    maps to a fixed worker, which then produces the canonical
    missing-parameter error.  Raises [Invalid_argument] when
    [workers < 1]. *)

val mint : int -> string
(** ["s<counter>"] — the session-id format shared with the
    in-process engine ([--workers 1]), so clients observe the same namespace in
    both modes. *)
