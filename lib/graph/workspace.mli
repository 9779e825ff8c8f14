(** Per-domain pools of reusable scratch buffers for the evaluation hot
    path.

    Every domain — the main one and each {!Bbc_parallel} pool worker —
    owns one workspace, fetched with {!get} (domain-local storage, so
    concurrent callers never contend and never see each other's
    buffers).  A workspace holds a free stack of {e clean} distance rows
    (every entry [Csr.unreachable]) plus one {!Csr.scratch} for the
    traversal kernels.

    Discipline: {!acquire} a row, use it, hand it back with {!release}
    (which re-cleans it with one [Array.fill]) or {!release_clean} (when
    the caller already restored it, e.g. via {!Csr.reset} — O(visited)).
    Acquire/release pairs must stay on the domain that issued them; the
    hot paths satisfy this by construction (rows never outlive the
    parallel task slice that acquired them).

    Rows are sized on demand: asking for a different length than the
    pool currently holds drops the old free stack (workloads switch
    instance sizes rarely; within a workload the pool is stable and
    steady-state acquisition allocates nothing). *)

type t

val get : unit -> t
(** This domain's workspace (created on first use). *)

val scratch : t -> Csr.scratch
(** The workspace's kernel scratch (queue, heap, dirty list). *)

val acquire : t -> int -> int array
(** [acquire ws n] is a clean length-[n] row: every entry
    [Csr.unreachable]. *)

val release : t -> int array -> unit
(** Return a row in any state: it is re-cleaned (O(n) [Array.fill]) and
    pushed on the free stack.  Rows whose length no longer matches the
    pool are dropped. *)

val release_clean : t -> int array -> unit
(** Return a row the caller has already restored to all-unreachable
    (e.g. with {!Csr.reset}); skips the fill.  Returning a dirty row
    through this function corrupts later acquisitions. *)

val pooled : t -> int
(** Number of rows currently on the free stack (for tests/metrics). *)

val acquire_many : t -> int -> int -> int array array
(** [acquire_many ws n k] is [k] clean length-[n] rows — one
    {!Csr.sssp_batch} window's worth. *)

val release_clean_many : t -> int array array -> unit
(** Return a batch of rows already restored to clean (e.g. via
    {!Csr.reset_rows}). *)
