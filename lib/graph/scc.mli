(** Strongly connected components (iterative Tarjan) and condensation.

    Component ids are assigned in reverse topological order of the
    condensation: if there is an edge from component [a] to component [b]
    (with [a <> b]) then [id a > id b].  Equivalently, component 0 is a sink
    of the condensation DAG.  This matches the use in the dynamics layer
    (Lemma 10 of the paper reasons about sink components). *)

type t = {
  count : int;  (** Number of strongly connected components. *)
  component : int array;  (** [component.(v)] is the id of [v]'s SCC. *)
}

val compute : Digraph.t -> t

val sizes : t -> int array
(** [sizes scc] maps each component id to its cardinality. *)

val is_strongly_connected : Digraph.t -> bool

val condensation : Digraph.t -> t -> Digraph.t
(** The condensation DAG: one vertex per component, a unit-length edge
    between distinct components whenever some original edge crosses them. *)
