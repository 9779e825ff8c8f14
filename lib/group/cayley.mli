(** Cayley graphs of finite abelian groups (paper, Section 4.2).

    [G(H, S)] has the elements of [H] as vertices and an edge
    [u -> u + a] for every generator [a] in [S].  The paper's "regular
    graphs" (each node's i-th edge goes to [x + a_i mod n]) are exactly
    the Cayley graphs of [Z_n]; hypercubes are Cayley graphs of [Z_2^d].
    All edges have length 1 (the game studied on them is uniform). *)

type t = private {
  group : Abelian.t;
  generators : Abelian.element list;  (** Distinct, non-identity. *)
  graph : Bbc_graph.Digraph.t;
}

val circulant : n:int -> offsets:int list -> t
(** The "regular graph" of the paper: Cayley graph of [Z_n] with the given
    offsets (each taken mod n, must be non-zero mod n and distinct). *)

val hypercube : int -> t
(** [hypercube d]: Cayley graph of [Z_2^d] with the [d] unit vectors —
    the [2^d]-node hypercube of Corollary 1. *)

val torus : int -> int -> t
(** [torus a b]: Cayley graph of [Z_a x Z_b] with generators [(1,0)] and
    [(0,1)] (directed 2-D torus). *)

val degree : t -> int

val random_circulant : Bbc_prng.Splitmix.t -> n:int -> k:int -> t
(** Circulant on [Z_n] with [k] distinct random non-zero offsets. *)
