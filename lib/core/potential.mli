(** Ordinal-potential analysis (paper, Section 4.3).

    A finite game admits an ordinal potential iff it has the finite
    improvement property (FIP): every path of strictly-improving
    unilateral deviations terminates — equivalently, the {e improvement
    graph} over profiles (one arc per strictly improving deviation) is
    acyclic (Monderer & Shapley 1996).

    The paper proves uniform BBC games are {e not} ordinal potential
    games by exhibiting a best-response cycle (Figure 4, at n = 7).
    This module makes the claim checkable at two scales:

    - for games whose profile space fits in memory,
      {!has_finite_improvement_property} builds the full graph on the
      profile-space engine ({!Exhaustive.blocks}) and decides FIP
      exactly (acyclicity via the library's own SCC);
    - for larger games, a best-response cycle found by {!Dynamics} is a
      direct witness of "no ordinal potential" (see E9).

    One can also ask for best-response-only dynamics (the [best_only]
    flag keeps only deviations to exact best responses), giving the FBRP
    (finite best-reply property) — a strictly weaker requirement. *)

type space = {
  profiles : Config.t array;  (** All profiles of the candidate space, in DFS order. *)
  index : Config.t -> int;  (** Position of a profile in [profiles]. *)
  candidates : int list list array;  (** Per-node strategy lists. *)
}

val enumerate_space :
  ?candidates:int list list array -> ?max_profiles:int -> Instance.t -> space option
(** Materialize the profile space (product of per-node candidate
    strategy lists, by default all feasible strategies) for tests and
    inspection; {!has_finite_improvement_property} never builds it.
    [None] if it exceeds [max_profiles] (default [200_000]). *)

val improvement_graph :
  ?objective:Objective.t ->
  ?best_only:bool ->
  ?candidates:int list list array ->
  Instance.t ->
  Bbc_graph.Digraph.t
(** Arc [p -> p'] when [p'] differs from [p] in one node's strategy and
    that node's cost strictly decreases.  Both endpoints must lie in the
    candidate space (default: all feasible strategies; deviations
    leaving a restricted space are skipped).  With [best_only] (default
    false) only deviations to exact best responses (the first optimum
    in {!Best_response.enumerate} order) are kept.

    Vertices are profile indices in DFS order (the order of
    {!enumerate_space}'s [profiles]).  Per (profile, node u), one
    {!Best_response.enumerate} prices every strategy of [u] from one
    [G_{-u}] row set, and an arc's head is found by changing [u]'s digit
    of the index; the last node's rows are shared by the profiles of a
    block.  Arcs are listed on the domain pool
    ({!Bbc_parallel.default_jobs}) and added in enumeration order, so
    the graph is the same for every job count. *)

val has_finite_improvement_property :
  ?objective:Objective.t ->
  ?best_only:bool ->
  ?candidates:int list list array ->
  ?max_profiles:int ->
  Instance.t ->
  bool option
(** Whether the improvement graph is acyclic.  [None] if the space
    exceeds [max_profiles] (default [200_000]).  [Some false] proves the
    game admits no ordinal potential. *)

val sinks_are_equilibria :
  ?objective:Objective.t -> Instance.t -> space -> Bbc_graph.Digraph.t -> bool
(** Sanity invariant used in tests: a profile with no outgoing
    improvement arc (over the {e full} space) is exactly a pure NE. *)
