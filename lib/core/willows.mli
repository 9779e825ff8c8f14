(** The "Forest of Willows" stable graphs (paper, Definition 1, Figure 3).

    For parameters [(k, h, l)] the graph has [k] sections.  Section [i]
    consists of a complete directed [k]-ary tree of height [h] rooted at
    [r_i], and, beneath each of its [k^h] leaves, a directed tail of [l]
    extra nodes.  Non-essential edges (the budget left over after the
    tree/tail edges) point at roots:

    - the last node of each tail links to all [k] roots;
    - the second-to-last links to every root except its own ("pattern A");
    - going up the tail (and ending at the leaf), nodes alternate between
      pattern A and "pattern B" = every root except one fixed non-own root
      (so pattern B includes the own root);
    - with [l = 0] the leaf itself is the "last node": it links to all
      [k] roots (the family then degenerates to [k] complete [k]-ary
      trees with leaf-to-root edges, the minimum-social-cost end of the
      spectrum).

    Lemma 6 proves these are pure Nash equilibria of the [(n,k)]-uniform
    game whenever [(h+l)^2/4 + h + 2l + 1 < n/k]; we verify stability
    computationally in the E4 experiment. *)

type params = { k : int; h : int; l : int }

val size : params -> int
(** Total node count [n = k * (tree_size + k^h * l)]. *)

val tree_size : params -> int
(** Nodes of one complete [k]-ary tree of height [h]. *)

val section_size : params -> int

val satisfies_paper_restriction : params -> bool
(** The Definition-1 side condition
    [(h+l)^2/4 + h + 2l + 1 < n/k] (evaluated exactly, in integers scaled
    by 4). *)

val max_tail_for : k:int -> h:int -> int
(** Largest [l >= 0] satisfying the restriction for the given [k, h]
    ([-1] if even [l = 0] fails). *)

val build : params -> Instance.t * Config.t
(** The [(n,k)]-uniform instance together with the initial configuration
    of Definition 1.  Requires [k >= 2], [h >= 1], [l >= 0]. *)

val root : params -> int -> int
(** [root p i] is the node id of [r_i], [0 <= i < k]. *)

val roots : params -> int list

val representative_nodes : params -> int list
(** One node per symmetry orbit of the initial configuration: the
    construction is invariant under relabeling sections (composed with a
    rotation of the root set) and under permuting the subtrees within a
    section, so node orbits are exactly "tree level d" (0 <= d <= h) and
    "tail depth d" (1 <= d <= l).  Verifying stability of these
    representatives therefore verifies it for all nodes; tests
    cross-check the sampled verdict against the full one on small
    instances. *)

val is_stable_sampled : params -> Instance.t -> Config.t -> bool
(** [Stability.nodes_stable] over {!representative_nodes}. *)

val pp_params : Format.formatter -> params -> unit
