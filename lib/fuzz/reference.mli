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

val enumerate :
  ?objective:Bbc.Objective.t ->
  Bbc.Instance.t ->
  Bbc.Config.t ->
  int ->
  on_subset:(int list -> int -> bool) ->
  unit
(** {!Bbc.Best_response.enumerate} as the plain subset DFS: [G_{-u}]
    rows from list-graph [Paths.shortest], and every subset costed from
    its full merged distance row ([w * d], the penalty for unreachable
    targets).  Same visiting order, strategy lists and stop rule, so the
    library must produce the identical (strategy, cost) sequence on
    every row provider and on its uniform [k = 1] closed form. *)
