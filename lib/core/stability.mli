(** Nash-equilibrium verification (polynomial in the instance size).

    A profile is stable (a pure Nash equilibrium) when it is feasible
    and no node has a feasible strategy with strictly smaller cost, all
    other strategies fixed.  {!is_stable} and {!find_deviation} share
    one scan for the lowest unstable node: [is_stable] asks only
    whether it exists, [find_deviation] reports its deviation.

    {b Uniform [k = 1].}  On a uniform [k = 1] functional profile (the
    closed form of {!Best_response}) one O(n) {!Functional.scan} gives
    every node's verdict, so {!is_stable} runs no decision at all and
    {!find_deviation} runs one, for the node it reports.  Results are
    those of the per-node scan; nothing fans out.

    {b Parallelism.}  Elsewhere the scan runs one exact best-response
    check per node.  The checks only read the shared instance, profile
    and one full CSR snapshot of it (all immutable), honouring the
    read-only-graph contract of {!Bbc_graph.Digraph}, and fan out over
    the {!Bbc_parallel} domain pool, with early abort, when the scan's
    work is large enough: nodes times affordable subsets per node of at
    least 4096.  So a 36-node [k = 4] check fans out.  [?jobs]
    overrides the default ({!Bbc_parallel.default_jobs} at or past the
    cutoff, sequential below).  Every job count returns identical
    results — verdicts, nodes, and costs.  {!nodes_stable} decides
    every node it covers (on the closed form too), sequentially. *)

type deviation = {
  node : int;
  current_cost : int;
  better : Best_response.result;  (** A strictly improving strategy. *)
}

val is_stable :
  ?objective:Objective.t ->
  ?jobs:int ->
  Instance.t ->
  Config.t ->
  bool

val nodes_stable :
  ?objective:Objective.t ->
  Instance.t ->
  Config.t ->
  int list ->
  bool
(** Stability restricted to the given nodes (no improving deviation for
    any of them).  Used with symmetry arguments: verifying one
    representative per orbit of a vertex-symmetric configuration is
    equivalent to verifying every node. *)

val find_deviation :
  ?objective:Objective.t ->
  ?jobs:int ->
  Instance.t ->
  Config.t ->
  deviation option
(** First improving deviation in node order, if any.  The parallel scan
    still reports the {e lowest} unstable node, exactly like the
    sequential one. *)

val pp_deviation : Format.formatter -> deviation -> unit
