(** Reachability utilities used by the dynamics layer.

    The paper's convergence argument (Lemmas 9, 10) is phrased in terms of
    the {e reach} of a node: the number of nodes it has a path to,
    including itself. *)

val reachable_set : Digraph.t -> int -> bool array
(** [reachable_set g u] marks every vertex reachable from [u] (including
    [u] itself). *)

val reach : Digraph.t -> int -> int
(** [reach g u] is the number of vertices reachable from [u], including
    [u] itself. *)
