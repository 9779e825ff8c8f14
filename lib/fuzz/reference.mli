(** Straightforward reference implementations kept as differential
    oracles for the optimized library paths.  Not for production use:
    each one trades all of the library's sharing for obviousness. *)

(** {1 Shortest paths on list graphs}

    Distances come back as a fresh [int array] indexed by vertex, with
    {!Bbc_graph.Csr.unreachable} marking vertices with no path.  These
    walk the adjacency lists of a {!Bbc_graph.Digraph} directly and share
    no code with the {!Bbc_graph.Csr} kernels they check, whatever the
    graph size. *)

val bfs : Bbc_graph.Digraph.t -> int -> int array
(** Hop-count distances from the source (every edge counts 1). *)

val dijkstra : Bbc_graph.Digraph.t -> int -> int array
(** Length-weighted distances from the source. *)

val shortest : Bbc_graph.Digraph.t -> int -> int array
(** {!bfs} when every edge has length 1, {!dijkstra} otherwise. *)

val floyd_warshall : Bbc_graph.Digraph.t -> int array array
(** The all-pairs matrix by Floyd–Warshall: O(n^3), sequential, and
    structurally independent of the SSSP kernels; 0 on the diagonal.
    Adds n to the [apsp.pivots] counter. *)

val local_search :
  ?objective:Bbc.Objective.t ->
  ?restarts:int ->
  ?max_sweeps:int ->
  Bbc_prng.Splitmix.t ->
  Bbc.Instance.t ->
  int * Bbc.Config.t
(** {!Bbc.Social_optimum.local_search} as a per-candidate sweep: every
    single-node move is realized with [Config.with_strategy] and scored
    by a full [Eval.social_cost].  Same signature, same RNG
    consumption, same tie-break, so the library version must return the
    identical (cost, profile) under the same seed. *)

val enumerate :
  ?objective:Bbc.Objective.t ->
  Bbc.Instance.t ->
  Bbc.Config.t ->
  int ->
  on_subset:(int list -> int -> bool) ->
  unit
(** {!Bbc.Best_response.enumerate} as the plain subset DFS: [G_{-u}]
    rows from list-graph {!shortest}, and every subset costed from
    its full merged distance row ([w * d], the penalty for unreachable
    targets).  Same visiting order, strategy lists and stop rule, so the
    library must produce the identical (strategy, cost) sequence on
    every row provider and on its uniform [k = 1] closed form. *)

(** {1 Profile spaces}

    The product of per-node candidate lists, visited as a plain list of
    profiles in DFS order (node 0 most significant), each one checked
    from scratch: the oracle of {!Bbc.Exhaustive}'s pruned block
    engine and its consumers. *)

val profiles : int list list array -> Bbc.Config.t list
(** Every profile of the space, in DFS order. *)

val search :
  ?objective:Bbc.Objective.t ->
  candidates:int list list array ->
  limit:int ->
  max_profiles:int ->
  Bbc.Instance.t ->
  Bbc.Exhaustive.result
(** {!Bbc.Exhaustive.search} at one job: one [Stability.is_stable] per
    profile, stopping at [limit] equilibria or before the profile past
    the [max_profiles] budget. *)

val analyze :
  ?objective:Bbc.Objective.t ->
  candidates:int list list array ->
  Bbc.Instance.t ->
  Bbc.Social_optimum.summary option
(** {!Bbc.Social_optimum.analyze}: one [Eval.social_cost] and one
    [Stability.is_stable] per profile; the first optimal, best and
    worst profile in DFS order. *)

val improvement_arcs :
  ?objective:Bbc.Objective.t ->
  best_only:bool ->
  candidates:int list list array ->
  Bbc.Instance.t ->
  (int * int) list
(** The arcs of {!Bbc.Potential.improvement_graph}, in insertion order
    (profiles, then nodes, then candidates), each move priced by one
    [Eval.node_cost]; with [best_only], the first optimum of {!enumerate}
    when it is a candidate. *)

val walk :
  ?objective:Bbc.Objective.t ->
  policy:Bbc.Dynamics.move_policy ->
  on_step:(Bbc.Dynamics.step -> unit) ->
  scheduler:Bbc.Dynamics.scheduler ->
  max_rounds:int ->
  Bbc.Instance.t ->
  Bbc.Config.t ->
  Bbc.Dynamics.outcome
(** {!Bbc.Dynamics.run} as a plain loop that hands every decision a
    snapshot built afresh from the profile it decides on
    ([Config.to_csr]), and finds [Max_cost_first]'s costs with one
    [Eval.node_cost] per node.  Same schedulers, policies, generator
    draws, tie-breaks and cycle rule (a repeat is a cycle only under a
    deterministic scheduler and policy), so the library walk, which keeps
    one snapshot and replaces a row per move, must report the identical
    step stream and outcome. *)
