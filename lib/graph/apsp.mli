(** All-pairs shortest paths.

    {!compute} builds the matrix from batched {!Csr} kernel sweeps —
    O(n (m + n)) on the sparse unit graphs this project mostly handles
    — with all traversal state drawn from the per-domain {!Workspace}
    pool, so the only allocation is the result matrix.  The test suite
    checks it against the Floyd–Warshall oracle in
    [Bbc_fuzz.Reference]; {!Metrics} folds the matrix into diameters
    and distance sums. *)

type t

val compute : ?jobs:int -> Digraph.t -> t
(** Batched CSR sweeps, fanned over the domain pool in contiguous
    source ranges.  Rows are independent, so the result is identical for
    every job count; small matrices (n < 128) run sequentially. *)

val distance : t -> int -> int -> int
(** [Csr.unreachable] when no path exists; 0 on the diagonal. *)

val matrix : t -> int array array
(** The full distance matrix (not a copy; treat as read-only). *)
