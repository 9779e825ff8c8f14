(** Best-response walks on the configuration space (paper, Section 4.3).

    In each {e step}, one node tests its stability and, if unstable,
    rewires to an exact best response.  Schedulers decide who moves:

    - [Round_robin]: fixed order [0 .. n-1] within each round (the
      scheduler of Theorem 6);
    - [Random_order seed]: a fresh uniformly-random permutation each round
      (still "each node once per round", as Theorem 6 permits);
    - [Fixed_order order]: the given permutation, fixed across rounds
      (the adversarial schedules of the paper's Omega(n^2) argument);
    - [Max_cost_first]: each step activates the unstable node with the
      largest current cost (lowest id on ties) — the adaptive walk of the
      paper's experimental remarks.  One sequential scan per step runs a
      first-improving {!Best_response.decide} for every node on the
      walk's snapshot; its [current] costs rank the nodes, and "unstable"
      always means the exact scan found an improvement.  On uniform
      [k = 1] functional profiles one {!Functional.scan} gives the same
      verdicts and costs, and only the chosen node is decided.

    {b Cycles.}  A repeated profile (at a round boundary; every step
    under [Max_cost_first]) is reported as [Cycled] only when the rest
    of the walk is a function of the profile: a deterministic scheduler
    ([Round_robin], [Fixed_order], [Max_cost_first]) with a
    deterministic policy ([Exact_best_response], [First_improvement]).
    Under [Random_order] or [Sampled_best_response] a repeat proves
    nothing, since the generator has moved on and a later draw may
    still find a move, so the walk ends [Converged] or [Exhausted]; under
    [Max_cost_first] it converges only when the exact scan finds no
    unstable node. *)

type scheduler =
  | Round_robin
  | Fixed_order of int array
  | Random_order of int
  | Max_cost_first

type move_policy =
  | Exact_best_response
      (** The paper's step: an unstable node rewires to an exact optimum. *)
  | First_improvement
      (** The node takes the first strictly improving strategy found (in
          DFS order) — the cheaper step many deployed systems use. *)
  | Sampled_best_response of { sample : int; seed : int }
      (** Large-n step: the node optimizes over [sample] candidate
          targets drawn without replacement from one walk-wide generator
          seeded with [seed] ({!Best_response.sampled}), and moves only
          on a strict improvement against its exact current cost —
          adopted deviations are always genuine.  A node may sit still
          even though an improvement exists outside its sample, so
          [Converged] means "no sampled improvement in a full pass", not
          a verified NE; the walk is replayable bit-for-bit from the
          seeds. *)

type step = {
  index : int;  (** 0-based global step counter (activations). *)
  round : int;  (** 0-based round (= [index] for [Max_cost_first]). *)
  node : int;
  moved : bool;
  strategy : int list;  (** The node's strategy after the step. *)
  cost_after : int;
      (** The node's cost after the step (equals {!Eval.node_cost} on
          the post-step profile).  It comes from the activation's own
          {!Best_response.decide}: the best strategy's cost on a move,
          the priced current cost otherwise — never a separate
          evaluation. *)
}

type stats = {
  rounds : int;  (** Completed rounds. *)
  steps : int;  (** Activations performed. *)
  deviations : int;  (** Activations that changed a strategy. *)
}

type outcome =
  | Converged of Config.t * stats
      (** A full pass made no change: the profile is a pure NE. *)
  | Cycled of { config : Config.t; period : int; stats : stats }
      (** The configuration at a round boundary recurred under a
          deterministic scheduler and policy (see above); [period] is
          the number of rounds between occurrences. *)
  | Exhausted of Config.t * stats  (** [max_rounds] reached. *)

val run :
  ?objective:Objective.t ->
  ?policy:move_policy ->
  ?on_step:(step -> unit) ->
  scheduler:scheduler ->
  max_rounds:int ->
  Instance.t ->
  Config.t ->
  outcome
(** [policy] defaults to [Exact_best_response].  The walk, step stream
    and outcome are the same for every job count.

    The walk holds one CSR snapshot of its current profile, built once
    at the start when the policy reads [G_{-u}] rows (always for
    [Sampled_best_response]; for the exact policies unless the uniform
    [k = 1] closed form answers every decision, see
    {!Best_response.snapshot}).  Every activation decides on it, and
    after a move the mover's row is replaced
    ({!Bbc_graph.Csr.with_row}, O(n + m)) instead of rebuilding the
    graph; a node that stays costs nothing.  Step stream and outcome
    are those of a walk that builds a fresh snapshot per decision.

    @raise Invalid_argument if a [Fixed_order] is not a permutation of
    the nodes. *)

val first_strong_connectivity :
  ?objective:Objective.t ->
  ?policy:move_policy ->
  scheduler:scheduler ->
  max_rounds:int ->
  Instance.t ->
  Config.t ->
  (stats * outcome) option
(** Run the walk and report the statistics at the first moment the
    realized graph becomes strongly connected ([None] if it never does
    within the walk).  Also returns the walk's final outcome.  Theorem 6:
    with round-robin scheduling this happens within [n^2] steps; Lemma 9
    guarantees it persists. *)

val final_config : outcome -> Config.t
val stats : outcome -> stats
val pp_outcome : Format.formatter -> outcome -> unit
