(** Mutable directed graphs over a fixed vertex set [0 .. n-1].

    Edges carry a non-negative integer length (used as the link length
    [l(u,v)] of the BBC model).  At most one edge exists per ordered pair;
    re-adding an edge replaces its length.  The representation is an
    adjacency list per vertex, which matches the access pattern of the
    shortest-path and best-response code (iterate out-edges of a vertex).

    {b Read-only-graph contract (multicore).}  A graph that is not
    mutated is safe to read from any number of domains concurrently: all
    queries ([n], [edge_count], [all_unit_lengths], [mem_edge],
    [out_edges], [iter_out], [iter_edges], ...) only read.  The parallel
    engine ({!Bbc_parallel}) relies on this — workers share one realized
    graph and keep their own scratch (distance arrays).  Interleaving a
    mutation ([add_edge]) with concurrent readers is a data race and is
    forbidden. *)

type t

val create : int -> t
(** [create n] is the empty graph on vertices [0 .. n-1]. *)

val n : t -> int
(** Number of vertices. *)

val edge_count : t -> int
(** Number of edges currently present. *)

val all_unit_lengths : t -> bool
(** Whether every edge has length 1, in O(1): the graph maintains a
    count of non-unit edges, updated on every insertion and replacement,
    so a BFS vs Dijkstra dispatch never rescans the edge
    set. *)

val add_edge : t -> int -> int -> int -> unit
(** [add_edge g u v len] adds (or replaces) the edge [u -> v] with length
    [len].  Raises [Invalid_argument] on out-of-range vertices, negative
    length, or a self-loop. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] is [true] iff the edge [u -> v] is present. *)

val out_edges : t -> int -> (int * int) list
(** [out_edges g u] is the list of [(v, length)] pairs for edges leaving
    [u], in unspecified order. *)

val out_degree : t -> int -> int

val iter_out : t -> int -> (int -> int -> unit) -> unit
(** [iter_out g u f] calls [f v len] for every edge [u -> v]. *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v len] for every edge. *)

val fold_edges : t -> ('a -> int -> int -> int -> 'a) -> 'a -> 'a

val edges : t -> (int * int * int) list
(** All edges as [(u, v, length)] triples, sorted lexicographically. *)

val of_edges : int -> (int * int * int) list -> t
(** [of_edges n edges] builds a graph from [(u, v, length)] triples. *)

val of_unit_edges : int -> (int * int) list -> t
(** [of_unit_edges n edges] builds a graph whose edges all have length 1. *)

val equal : t -> t -> bool
(** Structural equality: same vertex count, same edge set with lengths. *)
