(** Graph-level metrics: eccentricities, diameter, distance sums, degrees.

    Distances are hop counts when all edge lengths are 1 and weighted
    otherwise, from {!Csr} kernel sweeps: one snapshot sweep for a
    single-source metric, one {!Apsp.compute} matrix for an all-pairs
    one.  Unreachable pairs make the metric
    [None] (the BBC layer substitutes the disconnection penalty instead;
    these raw metrics are about the graph itself, e.g. Lemma 7's diameter
    bound applies to stable graphs, which are strongly connected). *)

val eccentricity : Digraph.t -> int -> int option
(** Max distance from a vertex to any other; [None] if some vertex is
    unreachable from it. *)

val diameter : Digraph.t -> int option
(** Max over vertices of {!eccentricity}; [None] unless strongly
    connected.  One {!Apsp.compute} matrix. *)

val radius : Digraph.t -> int option
(** Min over vertices of {!eccentricity} over vertices that reach all
    others; [None] if no vertex reaches all others. *)

val total_distance : Digraph.t -> int -> int option
(** Sum of distances from a vertex to all others. *)

val sum_of_distances : Digraph.t -> int option
(** Sum over ordered pairs of distances (the uniform-game social cost when
    the graph is strongly connected). *)

val average_distance : Digraph.t -> float option

val max_out_degree : Digraph.t -> int

val degree_histogram : Digraph.t -> (int * int) list
(** [(degree, multiplicity)] pairs sorted by degree. *)
