(** Graph-level metrics: diameter and radius.

    Distances are hop counts when all edge lengths are 1 and weighted
    otherwise, from one {!Apsp.compute} matrix.  A vertex's eccentricity
    is its largest distance to another vertex.  Unreachable pairs make
    the metric [None] (the BBC layer substitutes the disconnection
    penalty instead; these raw metrics are about the graph itself, e.g. Lemma 7's diameter
    bound applies to stable graphs, which are strongly connected). *)

val diameter : Digraph.t -> int option
(** Max over vertices of the eccentricity; [None] unless strongly
    connected.  One {!Apsp.compute} matrix. *)

val radius : Digraph.t -> int option
(** Min over vertices of the eccentricity over vertices that reach all
    others; [None] if no vertex reaches all others. *)
