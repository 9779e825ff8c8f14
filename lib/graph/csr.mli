(** Immutable flat CSR (compressed sparse row) snapshots of a digraph,
    with allocation-free shortest-path kernels.

    A snapshot packs the adjacency structure into three flat [int]
    arrays — row offsets, edge targets, edge lengths — so a sweep walks
    contiguous memory instead of chasing list cells.  Snapshots are
    immutable: build one per realized graph, run any
    number of sweeps against it, from any number of domains.

    The kernels ({!bfs}, {!dijkstra}, {!sssp}) write distances into a
    {b caller-supplied} buffer and keep all traversal state (BFS ring
    queue, Dijkstra heap, touched-vertex dirty list) in a reusable
    {!scratch}, so a sweep allocates nothing once the scratch has grown
    to the graph's size.  The dirty list makes clearing a distance
    buffer between sweeps cost O(visited), not O(n) ({!reset}).

    {b Contract.}  A distance buffer handed to a kernel must be
    {e clean}: every entry equal to {!unreachable}.  After the sweep,
    entries of visited vertices hold distances and the scratch's dirty
    list records exactly which entries were written; {!reset} restores
    the buffer to clean using that list.  The dirty list describes only
    the {e most recent} sweep through that scratch — reusing one scratch
    for several live buffers is fine, but only the last one can be reset
    through it (clear the others with [Array.fill _ 0 n unreachable], or
    let {!Workspace} do it on release).

    Scratches are single-domain state; {!Workspace} hands out one per
    domain. *)

type t

val unreachable : int
(** Sentinel distance ([max_int]) for vertices with no path — the one
    sentinel of every distance row in the library.  The BBC cost model
    replaces it by the disconnection penalty [M] at a higher layer. *)

val n : t -> int
val edge_count : t -> int

val unit_lengths : t -> bool
(** Whether every edge has length 1 (recorded at build time; {!sssp}
    dispatches BFS vs Dijkstra on it). *)

val equal : t -> t -> bool
(** Structural equality of the packed arrays — bit-identical layout,
    not just graph isomorphism.  Used to check that streaming builders
    reproduce {!of_digraph} exactly. *)

val of_digraph : Digraph.t -> t
(** Snapshot of [g]. *)

val with_row : t -> int -> targets:int array -> lengths:int array -> t
(** [with_row t u ~targets ~lengths] is a fresh snapshot equal (under
    {!equal}) to rebuilding [t] with [u]'s out-row replaced by the
    edges [u -> targets.(i)] of length [lengths.(i)], in that order.
    Three blits, O(n + m); {!unit_lengths} is recomputed.  [t] is left
    as it was, so sweeps that still hold it stay valid.  Raises
    [Invalid_argument] when [u] or a target is out of range, a length
    is negative, or the two arrays differ in length.  A walk that moves one node at a time
    keeps one snapshot this way instead of rebuilding it per step. *)

(** {1 Direct construction}

    For callers that can enumerate edges grouped by source in ascending
    order (e.g. a strategy profile), building the snapshot directly
    skips the intermediate adjacency-list graph. *)

type builder

val builder : n:int -> m:int -> builder
(** A builder for a graph on [n] vertices with at most [m] edges. *)

val add : builder -> int -> int -> int -> unit
(** [add b u v len] appends the edge [u -> v] of length [len >= 0].
    Sources must arrive in non-decreasing order; raises
    [Invalid_argument] otherwise, or on a negative length. *)

val finish : builder -> t
(** Seal the builder.  The builder must not be reused. *)

(** {1 Kernels} *)

type scratch

val create_scratch : unit -> scratch
(** An empty scratch; grows on first use to the graph's size and is
    reused (allocation-free) afterwards. *)

val bfs : ?ban:int -> t -> scratch -> src:int -> dist:int array -> unit
(** Hop-count distances from [src] into [dist] (must be clean, length
    [n]).  Edge lengths are ignored — exact for unit-length graphs.
    With [~ban:u], the out-edges of [u] are not traversed: distances
    are those of the best-response shape [G_{-u}], without building a
    per-node CSR. *)

val dijkstra : ?ban:int -> t -> scratch -> src:int -> dist:int array -> unit
(** Length-weighted distances from [src] into [dist] (must be clean).
    [ban] as in {!bfs}. *)

val sssp : ?ban:int -> t -> scratch -> src:int -> dist:int array -> unit
(** {!bfs} when {!unit_lengths}, {!dijkstra} otherwise. *)

val reset : scratch -> int array -> unit
(** Restore a distance buffer to all-{!unreachable} by clearing exactly
    the entries the {e most recent} sweep through this scratch wrote:
    O(visited), not O(n). *)

(** {1 Multi-source bit-parallel sweeps}

    Sweeps from up to {!batch_width} sources share one traversal (the
    MS-BFS technique): per-vertex source bitmaps replace the visited
    flag, so each adjacency row is read once per {e window} of sources
    instead of once per source.

    Unit-length snapshots advance the window level by level.  In
    windows of at least {!pull_min_width} sources, dense frontiers flip
    to a bottom-up pull pass over a transpose that is built on first use
    and cached in the scratch for that snapshot (direction-optimizing
    BFS); narrower windows always expand top-down and never build the
    transpose, so a few-source sweep of a fresh snapshot (a
    best-response prefetch) costs no O(n + m) set-up.

    Weighted snapshots whose longest edge is at most {!ring_max_length}
    (zero-length edges included) advance the window on one shared clock:
    arrivals wait in a ring of [max length + 1] time slots of per-vertex
    source bitmaps, and a vertex is settled for every source whose
    arrival comes due first (Dial's algorithm, one bit per source).
    Longer-edged snapshots fall back to one {!dijkstra} per source.  The
    rule reads only the snapshot.

    {!sssp_batch} is the single entry point: it windows any number of
    sources internally, picks the kernel per snapshot, and keeps the
    {!bfs} [?ban] semantics ([G_{-u}] sweeps).  Rows must be clean on
    entry, one per source, each of length >= [n]; {!reset_rows} restores
    the whole batch to clean afterwards — O(batch reach) when the batch
    fit one window, one fill per row otherwise. *)

val batch_width : int
(** Sources per bit-parallel window: [Sys.int_size - 1] (62 on 64-bit —
    the sign bit stays clear so source masks are non-negative). *)

val pull_min_width : int
(** The narrowest window that may take a bottom-up step (16).  A caller
    that keeps fewer rows live per window than {!batch_width} — to hold
    its resident footprint down — loses nothing of the pull pass as long
    as its windows are at least this wide. *)

val ring_max_length : int
(** The longest edge (32) a weighted snapshot may have for {!sssp_batch}
    to sweep it in bit-parallel windows; DESIGN.md section 16.3 has the
    measured crossover. *)

val sssp_batch :
  ?ban:int -> t -> scratch -> srcs:int array -> rows:int array array -> unit
(** Distances from every [srcs.(i)] into [rows.(i)].  With more than
    one source, unit-length snapshots and weighted ones whose longest
    edge is at most {!ring_max_length} take the bit-parallel path in
    ⌈k/{!batch_width}⌉ windows; otherwise each source runs {!sssp}.
    Equivalent to k independent [sssp] sweeps, bit for bit. *)

val reset_rows : scratch -> rows:int array array -> unit
(** Restore every row of the most recent batched call on this scratch
    to clean.  Uses the dirty list when it covers the whole batch
    (single window), full fills otherwise. *)
