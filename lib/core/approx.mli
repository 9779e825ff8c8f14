(** Landmark-approximate social cost for large instances.

    The exact social cost is one SSSP per node — O(n (n + m)) — which is
    the wall that keeps the exact engines below a few thousand nodes.
    This estimator samples [landmarks] source nodes uniformly without
    replacement, sweeps them against a shared {!Bbc_graph.Csr.t}
    snapshot through {!Eval.batched_costs} in windows of
    {!Bbc_graph.Csr.pull_min_width} pooled rows, and scales the sampled
    mean node cost by [n].

    The sample mean is an unbiased estimator of the mean node cost, so
    [value] is unbiased for the social cost.  [bound] is six standard
    errors of the scaled total, using the sample variance with the
    finite-population correction for sampling without replacement
    ([n * sqrt(s^2/L * (1 - L/n))]).  Under the normal approximation
    four standard errors already cover well above 99.99%; the extra
    margin absorbs the small-sample regime where a skewed cost
    population can hide its outliers from the sample and deflate the
    variance estimate.  It is a statistical bound, not a worst-case
    one — that is the price of touching L rows instead of n.

    Determinism: the landmark set is drawn from a {!Bbc_prng.Splitmix}
    generator seeded with [seed], and [value] is an exactly-summed
    integer scaled once, so repeated runs agree bit for bit for a fixed
    job count (only [bound]'s float accumulation, folded per
    16-landmark chunk, can wiggle in the last bits across different
    [jobs]). *)

type estimate = {
  value : float;  (** Estimated social cost (exact total when [exact]). *)
  bound : float;  (** 6 standard errors of the total; 0 when [exact]. *)
  landmarks : int;  (** Sources actually swept ([min landmarks n]). *)
  exact : bool;  (** [landmarks >= n]: every node swept, no sampling. *)
}

val social_cost :
  ?objective:Objective.t ->
  ?jobs:int ->
  landmarks:int ->
  seed:int ->
  Instance.t ->
  Bbc_graph.Csr.t ->
  estimate
(** [social_cost ~landmarks ~seed instance csr] with [csr] the realized
    snapshot of the profile (e.g. from {!Gen_instance.streaming} or
    [Config.to_csr]).  With [landmarks >= n] the estimator degenerates
    to the exact social cost ([bound = 0]) — the differential tests pin
    it to {!Eval.social_cost} there.  Sweeps use the {!Bbc_graph.Workspace}
    row pool and fan out over the domain pool, one 16-landmark chunk per
    pull ([jobs] as in {!Eval.all_costs}).  Raises [Invalid_argument] if [landmarks < 2] or
    the snapshot size disagrees with the instance. *)
