(** Uniform [k = 1] games on functional profiles (DESIGN.md section 9).

    In the [(n, 1)]-uniform game every node buys at most one unit link,
    so a profile is a successor array [succ] ([succ.(x) = -1] for a node
    that buys nothing) and a node reaches exactly the vertices of its
    walk [x, succ x, succ² x, …], the i-th at distance i.  Costs,
    best responses and stability verdicts all follow from walk counts,
    with no distance rows. *)

val input : Instance.t -> Config.t -> int array option
(** [Some succ] when the closed form applies: {!Instance.uniform_k} is
    [Some 1] and {!Config.successors} is [Some succ]. *)

val cost : objective:Objective.t -> Instance.t -> int -> int
(** The cost of reaching exactly [t] other nodes, at distances
    [1 .. t]: [t (t + 1) / 2 + (n - 1 - t) M] under Sum; under Max,
    [n - 1] when [t = n - 1], else [M].  [t = 0] is the empty
    strategy's cost.  Nonincreasing in [t]. *)

val walk_counts : int array -> int -> int array
(** [walk_counts succ u] is, for every [v <> u], the number [T_v] of
    vertices other than [u] that the walk from [v] visits in [G₋ᵤ]
    ([succ] with [succ.(u) := -1]) before it stops at [u], at a node
    that buys nothing, or closes a cycle; [0] at [u].  [u] playing
    [{v}] costs [cost T_v].  One O(n) pass. *)

val costs : objective:Objective.t -> Instance.t -> int array -> int array
(** Every node's cost under the profile [succ]: [cost (T - 1)] for the
    [T] vertices of its own walk in G.  One O(n) pass; equals
    {!Eval.node_cost} at every node. *)

type scan = {
  best : int array;
      (** [B(u)]: the largest [T_v] over [v <> u] in [G₋ᵤ], so [u]'s best
          deviation costs [cost B(u)]. *)
  current : int array;
      (** [C(u)]: the count of [u]'s current target in [G₋ᵤ], [0] when
          it buys nothing ([L - 1] on a cycle of length [L]), so [u]'s
          current cost is [cost C(u)]. *)
}

val scan : int array -> scan
(** [B] and [C] for every node in one O(n) pass: equal, node by node,
    to the maximum of {!walk_counts}[ succ u] over [v <> u] and to its
    entry at [succ.(u)]. *)

val improves : objective:Objective.t -> Instance.t -> scan -> int -> bool
(** [u] has a strictly improving deviation: [cost B(u) < cost C(u)].
    Under Sum that is [B(u) > C(u)]; under Max, [B(u) = n - 1 > C(u)]. *)
