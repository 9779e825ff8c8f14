(** Exact best responses.

    The enumeration exploits a structural fact: a shortest path from [u]
    leaves [u] exactly once (shortest paths never revisit a vertex), so
    with [G_{-u}] denoting the realized graph with [u]'s out-edges
    removed,

    {v d_S(u, x) = min over (u,v) in S of  l(u,v) + d_{G_{-u}}(v, x) v}

    Distances [d_{G_{-u}}(v, .)] do not depend on [u]'s strategy, so one
    batched sweep computes them once per candidate target.  Each
    distance row is then compacted to the columns
    [C_u = {x <> u : w(u,x) > 0}] and weighted into the decision's table
    of F rows:

    {v F_v(i) = w(u,x_i) * (l(u,v) + d_{G_{-u}}(v, x_i))    (w(u,x_i) * M if unreachable) v}

    Since [w > 0] commutes with [min] and the penalty [M] exceeds every
    finite distance, a strategy [S] costs exactly
    [sum_i min_{v in S} F_v(i)] (Max: [max_i]), with the empty strategy
    the row [w * M]; every subset is scored in O(|C_u|).  Strategies are
    enumerated by DFS over affordable target subsets.

    Uniform [k = 1] games on a functional profile (every node buys at
    most one link) need no rows at all: the affordable strategies are
    the empty set and the singletons, and each singleton's cost is a
    closed form in the length of the target's walk in [G_{-u}], all of
    which come from one O(n) pass over the successor array
    ({!Functional.walk_counts}, DESIGN.md section 9).  Every entry point
    except the sampled searches ({!sampled}, {!decide} with [Sampled])
    takes that path whenever {!Functional.input} is [Some _]; the
    results are the ones the rows would give.  Whole-profile scans on
    those inputs skip per-node decisions altogether
    ({!Functional.scan}, used by {!Stability}, {!Eval} and
    [Dynamics]' [Max_cost_first]).

    The [G_{-u}] rows are [~ban:u] sweeps of one full snapshot of the
    current profile, [Config.to_csr instance config].  Every function
    takes it as an optional shared argument ([?csr], trusted to equal
    that snapshot) and builds it itself when not given.  Results are
    bit-identical either way; the point is that whole-profile scans
    (stability scans, dynamics improving scans) share one read-only
    snapshot ({!snapshot}) instead of building one per node — and a
    parallel scan stops contending on allocation — and that
    a best-response walk keeps one snapshot for all its activations
    ({!Dynamics.run}). *)

type result = {
  strategy : int list;  (** An optimal link set (sorted). *)
  cost : int;  (** Its cost — the optimum over all feasible strategies. *)
}

val candidate_targets : Instance.t -> int -> int list
(** Targets [v <> u] with [cost(u,v) <= budget(u)], increasing. *)

val snapshot : Instance.t -> Config.t -> Bbc_graph.Csr.t option
(** The shared [?csr] for a scan that decides every node of [config]
    with [Exact] or [First_improving]: [None] when the closed form
    answers all of them and reads no rows, else
    [Some (Config.to_csr instance config)].  Passing [None] on is always
    correct; it only tells each decision that no snapshot is shared. *)

val enumerate :
  ?objective:Objective.t ->
  ?csr:Bbc_graph.Csr.t ->
  Instance.t ->
  Config.t ->
  int ->
  on_subset:(int list -> int -> bool) ->
  unit
(** [enumerate instance config u ~on_subset] calls
    [on_subset strategy cost] for every affordable strategy of [u]: the
    empty one first, then the DFS order over increasing targets, each
    [strategy] listing its targets in reverse order of addition.
    [on_subset] returns [true] to stop the enumeration.  The sequence is
    the same with and without [?csr], and on the closed-form path. *)

val exact :
  ?objective:Objective.t ->
  ?csr:Bbc_graph.Csr.t ->
  Instance.t ->
  Config.t ->
  int ->
  result
(** Optimal strategy for [u], all other strategies fixed.  Deterministic:
    among optima, the first in the DFS order over increasing targets
    (subset-minimal first). *)

(** {2 One decision}

    A best-response step compares [u]'s current cost with the best
    strategy a search finds.  Both numbers come from one table of F
    rows: a shortest path from [u] leaves [u] once, so [u]'s current
    cost is the score of its current target set, folded from those
    targets' F rows exactly like any enumerated subset.  The table's
    sources are the candidates, then every current target that is not
    one — outside the sample, or over budget in an infeasible profile —
    and one {!Bbc_graph.Csr.sssp_batch} call sweeps them all
    (bit-parallel on unit lengths and on lengths up to
    {!Bbc_graph.Csr.ring_max_length}).  A non-candidate target's row is
    folded into the current cost but never enters the DFS.  On the
    closed-form path the current cost is the walk-count formula at
    [u]'s target. *)

type search =
  | Exact
      (** The first optimum in DFS order.  Where [u]'s budget is at least
          three times its cheapest candidate's cost, a bounded search
          finds it: candidates in increasing order of their singleton
          cost, a subtree skipped when the columnwise min of the F rows
          still available prices every subset in it strictly above the
          best cost so far, and equal costs settled by DFS order over
          increasing targets.  The result is the full DFS's, with fewer
          subsets scored (DESIGN.md section 19.1). *)
  | First_improving
      (** DFS that stops at the first subset strictly below the current
          cost. *)
  | Sampled of { rng : Bbc_prng.Splitmix.t; sample : int }
      (** Full DFS over [sample] candidate targets drawn uniformly
          without replacement from [rng] (all of them when [sample] is
          at least their count).  Never takes the closed form. *)

type decision = {
  best : result;
      (** The best subset the search saw: the optimum ([Exact]), the
          sampled optimum ([Sampled]), or the first improving subset
          ([First_improving], which is the optimum when none improves).
          Its [cost] is exact: [u]'s cost after adopting [strategy]. *)
  current : int;  (** [u]'s exact cost under [config]; equals {!Eval.node_cost}. *)
}

val decide :
  ?objective:Objective.t ->
  ?csr:Bbc_graph.Csr.t ->
  search:search ->
  Instance.t ->
  Config.t ->
  int ->
  decision
(** [decide ~search instance config u] runs one search and prices [u]'s
    current strategy from the same table.  [u] strictly improves iff
    [best.cost < current], and the cost after the step is [best.cost]
    if it moves, [current] if it does not.  {!exact}, {!improving} and
    {!sampled} are views of it. *)

val improving :
  ?objective:Objective.t ->
  ?csr:Bbc_graph.Csr.t ->
  Instance.t ->
  Config.t ->
  int ->
  result option
(** [Some r] with [r.cost] strictly below [u]'s current cost if a strictly
    improving deviation exists, else [None].  Unlike {!exact}, exits as
    soon as any improvement is found (the returned deviation is improving
    but not necessarily optimal).  The current cost comes from the
    search's own rows ({!decide} with [First_improving]). *)

val sampled :
  ?objective:Objective.t ->
  ?csr:Bbc_graph.Csr.t ->
  rng:Bbc_prng.Splitmix.t ->
  sample:int ->
  Instance.t ->
  Config.t ->
  int ->
  result option
(** Sampled best response for large instances: the exact DFS restricted
    to [sample] candidate targets drawn uniformly without replacement
    (deterministic given [rng]'s state).  Scoring is exact, so the
    result is trustworthy where it looks: [Some r] only when [r.cost]
    is {e strictly} below [u]'s exact current cost — a returned
    deviation is always genuinely improving — and [None] means no
    improvement exists {e within the sampled pool} (a full improving
    deviation may still exist outside it).  With [sample] at least the
    candidate count, identical to {!exact} filtered to improvements.
    The current cost comes from the same rows ({!decide} with
    [Sampled]). *)

