(** Straightforward reference implementations kept as differential
    oracles for the optimized library paths.  Not for production use:
    each one trades all of the library's sharing for obviousness. *)

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
