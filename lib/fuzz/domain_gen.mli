(** BBC-domain generators built on {!Gen}: instances, feasible strategy
    profiles, and server request programs.

    Distributions mix the paper's structured families (rings, trees,
    Forest-of-Willows, circulant Cayley graphs, random k-out) with
    uniform and table-perturbed general games — equilibrium-relevant
    structure rather than uniform noise — while shrinking pulls every
    dimension toward the minimal instance: fewer nodes, smaller budgets,
    smaller tables, fewer links, fewer moves. *)

val instance : ?min_n:int -> ?max_n:int -> ?max_k:int -> unit -> Bbc.Instance.t Gen.t
(** A game instance: uniform [(n, k)], a general game with generated
    weight/cost/length/budget tables, or a small paper family.
    [min_n >= 2] (default 2), [max_n] default 10, [max_k] default 3. *)

val config_for : Bbc.Instance.t -> Bbc.Config.t Gen.t
(** A feasible strategy profile for the instance.  Shrinks by dropping
    links (never by regenerating), so feasibility is preserved along
    every shrink path. *)

val instance_config :
  ?min_n:int -> ?max_n:int -> ?max_k:int -> unit ->
  (Bbc.Instance.t * Bbc.Config.t) Gen.t
(** An instance together with a feasible profile on it. *)

val node_of : Bbc.Instance.t -> int Gen.t
(** A node id of the instance (shrinks toward 0). *)

val strategy_for : Bbc.Instance.t -> int -> int list Gen.t
(** A feasible strategy for the given node (sorted, within budget);
    shrinks by dropping links. *)

val moves : ?max_moves:int -> Bbc.Instance.t -> (int * int list) list Gen.t
(** A sequence of feasible rewires [(node, new strategy)], along which
    the closed-form property walks its profiles.  Shrinks by dropping
    moves, then links inside a move. *)

val uniform_k1_config :
  ?max_n:int -> unit -> (Bbc.Instance.t * Bbc.Config.t) Gen.t
(** An [(n, 1)]-uniform game ([2 <= n <= max_n], default 10) with the
    default penalty or a custom one ({!Bbc.Instance.with_penalty}), and
    a profile on it: every node buys one link or none, so the realized
    graph is functional (the input of {!Bbc.Best_response}'s closed
    form).  Shrinks toward fewer nodes and fewer links. *)

val graph : ?min_n:int -> ?max_n:int -> ?max_k:int -> unit -> Bbc_graph.Digraph.t Gen.t
(** A unit-length digraph ([random_k_out] or [gnp]); [n], [k] and the
    seed all shrink. *)

(** {1 Server request programs}

    A [program] is an operation list executed against one session; the
    differential harness renders it to wire requests for the in-process
    engine and mirrors it with direct library calls. *)

type op =
  | Cost_all
  | Cost_node of int
  | Best_response_of of int
  | Stable
  | Apply_move of int * int list
  | Step_dynamics of int

val ops_to_string : op list -> string
(** Compact rendering for counterexample reports. *)

val program :
  ?max_ops:int -> Bbc.Instance.t -> op list Gen.t
(** Operations valid for the instance (nodes in range, feasible
    strategies, bounded step counts); shrinks by dropping operations. *)
