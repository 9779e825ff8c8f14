(** Exact social optima and exact price of anarchy / stability on small
    games.

    The paper's PoA/PoS statements are asymptotic; on instances whose
    profile space fits in memory we can compute the quantities exactly:
    the socially optimal profile, the best and worst pure equilibria, and
    the exact ratios.  Used by the E12 extension experiment and to
    sanity-check the lower-bound-based estimators of {!Metrics}. *)

type summary = {
  optimum : int;  (** Minimum social cost over all profiles. *)
  optimal_profile : Config.t;
  best_equilibrium : (int * Config.t) option;  (** None if no pure NE. *)
  worst_equilibrium : (int * Config.t) option;
  equilibria : int;  (** Number of pure equilibria. *)
  profiles : int;  (** Profiles examined. *)
}

val analyze :
  ?objective:Objective.t ->
  ?candidates:int list list array ->
  ?max_profiles:int ->
  ?jobs:int ->
  Instance.t ->
  summary option
(** Exhaustive analysis of the profile space (default: all feasible
    strategies of every node; [max_profiles] defaults to [2_000_000]).
    [None] if the space is larger than [max_profiles].

    {b Cost model.}  The space is visited in {!Exhaustive.blocks}: per
    assignment of nodes [0 .. n-2], one CSR snapshot, one batched
    [~ban:(n-1)] sweep from all n sources that scores the social cost of
    every candidate of node [n-1] (the tables of {!local_search}), and
    one {!Best_response.enumerate} that prices all of that node's
    strategies.  Only the profiles whose last strategy is a best
    response pay a {!Stability.nodes_stable} check of nodes
    [0 .. n-2].  [jobs] (default {!Bbc_parallel.default_jobs}) runs the
    prefix subtrees on the domain pool; their results merge in prefix
    order, so the summary, tie-breaks included (the first optimal,
    best and worst profile in enumeration order), is the same for
    every job count.

    Note: with a restricted candidate space, [optimum] is exact for that
    space and every reported equilibrium is a true NE (full-deviation
    check), but equilibria outside the space are not seen. *)

val price_of_stability : summary -> float option
(** [best NE cost / optimum]; [None] if no pure NE exists. *)

val price_of_anarchy : summary -> float option
(** [worst NE cost / optimum]. *)

val local_search :
  ?objective:Objective.t ->
  ?restarts:int ->
  ?max_sweeps:int ->
  Bbc_prng.Splitmix.t ->
  Instance.t ->
  int * Config.t
(** Heuristic optimum for instances whose profile space is too large for
    {!analyze}: hill-climbing on the social cost (each step replaces one
    node's strategy with its socially-best alternative), restarted from
    [restarts] (default 3) random maximal-strategy profiles; returns the
    best (cost, profile) found.  An upper bound on the true optimum —
    useful as the denominator of a conservative PoA estimate.

    A sweep (at most [max_sweeps], default 50, per restart) tries every
    feasible strategy of every node and takes the strictly best move:
    nodes ascending, then {!Exhaustive.all_strategies} order, first
    strict best wins.

    {b Cost model.}  One CSR snapshot per sweep, and per node [u] one
    batched [~ban:u] sweep from all n sources — the [G_{-u}] distance
    matrix D.  Every strategy of [u] is then scored exactly from D, with
    no further snapshot or sweep: [Sum] in O(|S| n) from a per-node table
    of per-link costs, [Max] in O(n{^2}) by folding each source's merged
    row (see DESIGN.md §17).  Candidates stop early once their partial
    cost reaches the node's best so far.  From 16 nodes on, the nodes of
    a sweep fan out over the domain pool: each keeps its first strictly
    best move below the sweep's cost, and the strict minimum over nodes
    ascending is the sequential sweep's move, so the result is the same
    for every job count.  The [social_optimum.local_search] span times
    the call and [social_optimum.moves_scored] counts the candidate
    moves, added once per sweep. *)
