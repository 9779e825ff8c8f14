(** Multicore execution engine: a fixed-size OCaml 5 domain pool with
    chunked, deterministic data-parallel operations.

    {1 Pool model}

    A single process-wide pool of worker domains is created lazily on the
    first parallel call and grows (never shrinks) up to the largest job
    count requested, bounded by an internal hard cap.  Each operation runs
    on [jobs] participants: the calling domain plus [jobs - 1] pool
    workers.  [jobs] defaults to {!default_jobs}.  Workers park on a
    condition variable between operations, so an idle pool costs nothing
    but memory.

    {1 Determinism}

    Every operation returns a result that is independent of the number of
    jobs and of scheduling:
    - {!parallel_for} / {!parallel_for_chunks} / {!parallel_init} write
      disjoint output slots;
    - {!parallel_find_first} returns the hit with the {e lowest index},
      exactly as a sequential left-to-right scan would, while still
      aborting work at higher indices early.

    {1 Call sites}

    These seven values are the whole pool API.  Each library fan-out
    sits at a call site that a benchmark workload or a CI gate actually
    reaches with more than one job (DESIGN.md section 7 lists them with
    their measured counts); per-node scans that nothing reaches in
    parallel run as plain sequential loops instead.

    {1 Thread-safety contract}

    The function passed to an operation is executed concurrently on
    several domains.  It must confine its mutable state to the call (own
    scratch arrays, own graph copies) and treat everything captured from
    the environment as {b read-only}.  The BBC hot paths satisfy this:
    {!Bbc.Instance.t} and {!Bbc.Config.t} are immutable, and the
    realized graph handed to per-node cost evaluations is only read (see
    the read-only-graph contract in [eval.mli], [stability.mli] and
    [digraph.mli]).

    Nested parallel calls (from inside a function already running on the
    pool) transparently degrade to the sequential path instead of
    deadlocking, so library code may call these operations without
    knowing whether it is itself inside one. *)

val default_jobs : unit -> int
(** Effective default job count, resolved in priority order:
    {!set_default_jobs} if called, else the [BBC_JOBS] environment
    variable (ignored unless a positive integer), else
    [Domain.recommended_domain_count ()].  Always at least 1. *)

val set_default_jobs : int -> unit
(** Override the default job count (the [--jobs] CLI flag).  Raises
    [Invalid_argument] if the argument is < 1.  Values are clamped to an
    internal hard cap. *)

val jobs_for : ?jobs:int -> threshold:int -> int -> int
(** [jobs_for ?jobs ~threshold n] resolves an optional per-call job
    count for a problem of size [n]: an explicit [jobs] always wins
    (floored at 1, so callers can force the parallel path in tests);
    otherwise problems below [threshold] run sequentially and larger
    ones use {!default_jobs}.  Shared by the hot-path call sites so
    "small inputs stay sequential" is one policy, not many. *)

val parallel_for_chunks : ?jobs:int -> ?chunk:int -> int -> int -> (int -> int -> unit) -> unit
(** [parallel_for_chunks lo hi f] covers [lo, hi) with disjoint chunk
    ranges of size [chunk] (default: range split into ~8 chunks per
    job) and runs [f start stop] once per chunk ([start <= i < stop]),
    concurrently on distinct chunks.  The callee sees the whole chunk,
    so it can amortize per-slice setup — acquire a workspace row once,
    sweep the chunk, release once — instead of paying it per index.
    With [jobs = 1], or a range of one index, the whole range arrives as
    a single chunk on the caller and the pool is not woken. *)

val parallel_for : ?jobs:int -> ?chunk:int -> int -> int -> (int -> unit) -> unit
(** [parallel_for lo hi f] runs [f i] for every [lo <= i < hi]: a loop
    over each chunk of {!parallel_for_chunks}.  [f] must be safe to call
    concurrently on distinct indices. *)

val parallel_init : ?jobs:int -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]: every index, [0] included, is claimed like
    any other by {!parallel_for}. *)

val parallel_find_first : ?jobs:int -> ?chunk:int -> int -> int -> (int -> 'a option) -> 'a option
(** [parallel_find_first lo hi f] is [f i] for the smallest [i] with
    [f i <> None], or [None].  Identical to the sequential scan, with
    early abort: once a hit is known at index [i], no work is started at
    indices [>= i]. *)
