(** Complete enumeration of pure Nash equilibria over a profile space.

    The profile space is the product of per-node candidate strategy lists
    (by default, {e all} feasible strategies of each node).  Regardless of
    any candidate restriction, every reported equilibrium is stable
    against {e all} feasible deviations, so it is a true pure NE of the
    unrestricted game.  A restriction only narrows where we look: "no
    equilibrium found" under a restriction certifies absence within the
    restricted space (used for the Figure-1 gadget, whose full space of
    11^11 profiles is out of reach; see DESIGN.md).  Most profiles are
    settled without a stability check: only the last node's best
    responses can be equilibria ({!blocks}; DESIGN.md section 20). *)

type result = {
  equilibria : Config.t list;  (** In enumeration order, up to [limit]. *)
  examined : int;
      (** Profiles visited, including those the last-level pruning
          settles without a stability check. *)
  complete : bool;
      (** Whether the whole candidate space was examined (false when the
          [limit] on equilibria or [max_profiles] stopped the search). *)
}

val all_strategies : Instance.t -> int -> int list list
(** Every feasible strategy of a node: all subsets of affordable targets
    whose total cost is within budget (including the empty strategy). *)

val maximal_strategies : Instance.t -> int -> int list list
(** Feasible strategies to which no further affordable link can be added.
    In games with non-negative weights, adding a link never increases
    one's own cost, so every node has a maximal best response — a
    sound candidate restriction for {e existence} searches. *)

val forced_candidates : Instance.t -> int list list array
(** Every node with exactly one positive preference [t] gets the single
    candidate [[t]]; every other node gets {!all_strategies}.

    Sound for NE existence in a game where each link has unit length and
    one link exhausts the buyer's budget ({!Instance.of_weights} with
    [~k:1]).  Such a node [u]'s cost, under Sum or Max, is
    [w(u,t) * d(u,t)]: the link [u -> t] makes [d(u,t) = 1] and no
    other strategy does, so it is [u]'s unique strict best response
    against every profile, and every pure NE has [u] on [[t]].  An
    equilibrium of the restricted space is checked against all
    deviations (see above), so "no equilibrium here" is "no pure NE". *)

val space_size : int list list array -> float
(** Product of candidate-list sizes (float to avoid overflow). *)

val search :
  ?objective:Objective.t ->
  ?candidates:int list list array ->
  ?limit:int ->
  ?max_profiles:int ->
  ?jobs:int ->
  Instance.t ->
  result
(** Enumerate the profile space in DFS order (node 0 most significant)
    and collect its pure equilibria.  [limit] (default 1) bounds the
    number of equilibria collected; [max_profiles] (default [10^8])
    aborts oversized searches with [complete = false].  The budget is
    charged per profile, also inside a pruned block, so an aborted
    search reports [examined = max_profiles] at one job.

    [jobs] (default {!Bbc_parallel.default_jobs}) partitions the space
    by a prefix of the first node levels and enumerates the subtrees on
    the domain pool.  Early abort propagates across domains: a subtree
    stops once the prefixes preceding it have found [limit] equilibria
    (everything they found precedes anything it could find) or the
    global [max_profiles] budget is exhausted.  Unless the budget cuts
    the search, the [equilibria] list and [complete] flag are therefore
    identical for every job count, and so is [examined] when the search
    completes. *)

val has_equilibrium :
  ?objective:Objective.t ->
  ?candidates:int list list array ->
  ?max_profiles:int ->
  ?jobs:int ->
  Instance.t ->
  bool option
(** [Some b] if the search completed, [None] if it hit [max_profiles]. *)

val count_equilibria :
  ?objective:Objective.t ->
  ?candidates:int list list array ->
  ?max_profiles:int ->
  ?jobs:int ->
  Instance.t ->
  int option

(** {2 The profile-space engine}

    Shared by {!search}, {!Social_optimum.analyze} and {!Potential}.  A
    profile's index is the mixed-radix number of its nodes' candidate
    positions, node 0 most significant (DFS order). *)

val candidate_lists : ?candidates:int list list array -> Instance.t -> int list list array
(** [candidates] if given, else {!all_strategies} of every node. *)

val candidate_rows : Instance.t -> int list list array -> int array array array
(** Every candidate validated once ({!Config.validated_strategy}). *)

val ordinals : Instance.t -> int array array array -> int -> int array * int
(** [(ord, count)]: {!Best_response.enumerate} visits [u]'s candidate
    [j] [ord.(j)]-th ([-1]: not affordable) of its [count] strategies,
    on every profile. *)

type block = {
  view : Config.t;  (** The block's profile buffer. *)
  first : int;  (** Index of its profile with node [n-1] on candidate 0. *)
  set : int -> unit;  (** Put node [n-1] on candidate [j]. *)
  stable : int -> bool;  (** [set j]; is that profile a pure NE? *)
}

val blocks :
  ?objective:Objective.t ->
  jobs:int ->
  Instance.t ->
  int array array array ->
  start:(int -> int -> 'a option) ->
  block:('a -> block -> bool) ->
  'a option array
(** Every assignment of nodes [0 .. n-2] as a {!block}, in DFS order,
    split into prefix subtrees on the {!Bbc_parallel} pool.
    [start count] is applied once, with the number of subtrees; then
    [start count p] makes subtree [p]'s state ([None]: skip it), and
    [block] returns [true] to stop its subtree.  [stable] prices node
    [n-1]'s strategies with one enumeration per block, on first use;
    only its best responses pay a {!Stability.nodes_stable} check of
    the others.  The states come back in prefix order, so a
    left-to-right merge is the sequential answer for every job count. *)
