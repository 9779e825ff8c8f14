(** Structured and random graph generators.

    All edges produced have length 1 (uniform-game graphs); the random
    generators take an explicit {!Bbc_prng.Splitmix.t} so experiments are
    replayable. *)

val directed_ring : int -> Digraph.t
(** [directed_ring n]: edge [i -> (i+1) mod n] for every [i].  [n >= 2]. *)

val directed_path : int -> Digraph.t
(** [directed_path n]: edge [i -> i+1] for [i < n-1]. *)

val complete : int -> Digraph.t
(** Every ordered pair is an edge. *)

val random_k_out : Bbc_prng.Splitmix.t -> n:int -> k:int -> Digraph.t
(** Every node gets [k] out-edges to distinct uniformly random targets
    (never itself).  Requires [k <= n - 1]. *)

val gnp : Bbc_prng.Splitmix.t -> n:int -> p:float -> Digraph.t
(** Directed Erdős–Rényi: each ordered pair is an edge independently with
    probability [p]. *)
