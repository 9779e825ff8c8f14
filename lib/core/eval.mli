(** Exact cost evaluation.

    The cost of node [u] in the network [G(S)] is the aggregate (per the
    objective) over all [v <> u] of [w(u,v) * d(u,v)], where [d(u,v)] is
    the shortest-path distance and unreachable targets count as the
    instance's penalty [M].  (Note: following the paper, a target with
    [w(u,v) = 0] contributes nothing even when unreachable.) *)

val node_cost : ?objective:Objective.t -> Instance.t -> Config.t -> int -> int
(** [node_cost instance config u] is [u]'s cost: one {!csr_node_cost}
    sweep of [Config.to_csr instance config].  Callers that evaluate
    many nodes of one profile build the snapshot once and call
    {!csr_node_cost}. *)

val all_costs :
  ?objective:Objective.t -> ?jobs:int -> Instance.t -> Config.t -> int array
(** Cost of every node (one shortest-path computation per node), swept
    by {!batched_costs} with [width = Csr.batch_width]:
    [Csr.batch_width] sources at a time go through one
    {!Bbc_graph.Csr.sssp_batch} window, and each pool pull claims one
    such window.  The per-source computations are independent
    — workers share the realized graph {e read-only} and own their
    pooled distance rows — so they are fanned out over the
    {!Bbc_parallel} domain pool.  [jobs] defaults to
    {!Bbc_parallel.default_jobs} for n >= 64 and to 1 below that; the
    result is identical for every job count.  On a uniform [k = 1]
    functional profile ({!Functional.input}) every cost comes from the
    node's own walk instead ({!Functional.costs}: one O(n) pass on the
    caller, no sweep), inside the same [eval.all_costs] span. *)

val social_cost : ?objective:Objective.t -> ?jobs:int -> Instance.t -> Config.t -> int
(** Sum over nodes of {!node_cost} — the paper's total social cost:
    the sum of the array {!all_costs} computes, swept the same way (its
    own [eval.social_cost] span, no [eval.all_costs] span inside; the
    same one-pass closed form on uniform [k = 1] functional profiles). *)

val cost_of_distances :
  ?objective:Objective.t -> Instance.t -> int -> int array -> int
(** [cost_of_distances instance u dist] folds a precomputed distance array
    (with {!Bbc_graph.Csr.unreachable} marking no-path) into [u]'s cost.
    Exposed for callers that hold their own distance rows
    ([Social_optimum]'s local search, the fuzz reference oracle). *)

val batched_costs :
  ?objective:Objective.t ->
  width:int ->
  Instance.t ->
  Bbc_graph.Csr.t ->
  int array ->
  emit:(int -> int -> unit) ->
  int ->
  int ->
  unit
(** [batched_costs ~width instance csr srcs ~emit lo hi] calls
    [emit u c] for each source [u = srcs.(i)], [lo <= i < hi], in that
    order, with [c] [u]'s cost under [csr] (trusted to be the realized
    snapshot).  Windows of at most [width] sources go through
    {!Bbc_graph.Csr.sssp_batch}, which picks the kernel for the
    snapshot, into that many pooled {!Bbc_graph.Workspace} rows.  This is the one sweep loop behind
    {!all_costs}, {!social_cost} ([width = Csr.batch_width]) and
    {!Approx.social_cost} ([width = Csr.pull_min_width]): [width] bounds
    the live rows, so it trades the resident footprint against how many
    sources share a traversal.  Runs on the calling domain; callers fan
    out by handing disjoint [lo, hi) ranges to pool workers.  Raises
    [Invalid_argument] when [width < 1]. *)

val csr_node_cost : ?objective:Objective.t -> Instance.t -> Bbc_graph.Csr.t -> int -> int
(** [csr_node_cost instance csr u] is [u]'s cost under a prebuilt CSR
    snapshot of the realized graph (trusted to equal
    [Config.to_csr instance config]): one pooled allocation-free sweep
    plus the cost fold.  The snapshot-reusing counterpart of
    {!node_cost} for callers that evaluate many nodes against one
    profile. *)
