(** Strategy profiles (the paper's [S = {S_u}]): for every node, the set
    of targets of the out-links it buys.

    Target lists are stored sorted and duplicate-free, which gives cheap
    structural equality and hashing — the dynamics layer detects
    best-response cycles by hashing visited profiles. *)

type t

val n : t -> int

val empty : int -> t
(** The profile in which nobody buys anything (the "empty graph" start
    state of Section 4.3). *)

val of_lists : int -> int list array -> t
(** [of_lists n strategies] validates: array length [n], targets in range,
    no self-links, no duplicates.  (Budget feasibility depends on the
    instance; see {!feasible}.) *)

val of_graph : Bbc_graph.Digraph.t -> t
(** Forget lengths: each node's strategy is its out-neighbor set. *)

val targets : t -> int -> int list
(** Sorted targets of a node's strategy. *)

val strategy_size : t -> int -> int

val successors : t -> int array option
(** [Some succ] when every node buys at most one link (the realized
    graph is functional): [succ.(u)] is [u]'s target, or [-1] when [u]
    buys nothing.  [None] as soon as some node buys two or more. *)

val with_strategy : t -> int -> int list -> t
(** Functional update of one node's strategy (validated as in
    {!of_lists}).  The profile is persistent: the original is unchanged. *)

val feasible : Instance.t -> t -> bool
(** Every node's spend is within its budget. *)

val to_graph : Instance.t -> t -> Bbc_graph.Digraph.t
(** Realize the bought links as a digraph with lengths from the
    instance. *)

val to_csr : Instance.t -> t -> Bbc_graph.Csr.t
(** Realize the profile directly as a flat CSR snapshot — no
    intermediate adjacency-list graph.  Best responses sweep it with
    [~ban:u] for the [G_{-u}] rows. *)

val csr_with_row : Instance.t -> t -> Bbc_graph.Csr.t -> int -> Bbc_graph.Csr.t
(** [csr_with_row instance config snap u] replaces [u]'s row of [snap]
    by [u]'s strategy in [config] ({!Bbc_graph.Csr.with_row}).  When
    [snap] is [to_csr] of a profile that differs from [config] at most
    in [u]'s strategy, the result equals [to_csr instance config]. *)

(** {2 Trusted construction (hot paths)}

    The exhaustive search enumerates millions of profiles; validating
    and re-sorting each one ({!of_lists}) dominated its budget.  These
    entry points let a caller that {e already} maintains the
    representation invariant (every row sorted, duplicate-free, in
    range, no self-links — e.g. rows produced by {!validated_strategy})
    wrap or copy a profile without a per-profile pass. *)

val validated_strategy : int -> int -> int list -> int array
(** [validated_strategy n u targets] validates one strategy exactly as
    {!of_lists} does and returns its canonical sorted array. *)

val unsafe_of_arrays : int array array -> t
(** Adopt the array as a profile {b without copying or validation}.
    The caller promises every row satisfies the representation
    invariant; the view aliases the array, so later in-place updates of
    the array are visible through it (the exhaustive search exploits
    exactly this for its reusable profile buffer). *)

val snapshot : t -> t
(** Deep copy (rows included) — detaches a profile obtained from
    {!unsafe_of_arrays} from its underlying mutable buffer. *)

val equal : t -> t -> bool
val hash : t -> int

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by whole profiles ({!equal}, {!hash}). *)

val pp : Format.formatter -> t -> unit
