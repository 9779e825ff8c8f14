(** One Monte-Carlo work unit: a fully-specified best-response walk.

    A trial names everything {!Dynamics.run} needs — an instance
    generator with its size parameters, an initial configuration rule, a
    scheduler, a move policy, an objective, a round budget — plus one
    integer [seed] from which every stream of randomness the walk
    consumes (instance tables, random start, random-order schedules,
    sampled candidates) is derived deterministically.  Two executions of
    the same trial, anywhere, produce bit-identical walks; that is the
    contract the campaign layer ({!Bbc_campaign}) builds on, and the
    [campaign] fuzz suite checks it against a direct {!Dynamics.run}.

    A trial has no JSON form of its own: a campaign spec names a grid of
    trials, and only the spec and each unit's {!summary} are written to
    disk.  Their component codecs below are canonical — re-encoding a
    decoded value is the identity on the rendered string — which lets a
    campaign directory compare its spec bytewise. *)

(** Instance source.  [Catalog] names a {!Catalog} construction (its
    randomized members consume [seed] directly); [Family] names a
    {!Gen_instance} streaming family realized as a configuration; the
    rest are the {!Gen_instance} random generators, seeded per trial —
    the Monte-Carlo core.  [Sparse.zero_pct] is a percentage so specs
    stay integer-exact in JSON. *)
type generator =
  | Catalog of string
  | Family of string
  | Sparse of { zero_pct : int; max_weight : int }
  | Budgets of { max_budget : int }
  | Costs of { max_cost : int }
  | Metric of { span : int }
  | Perturbed of { flips : int }

(** Initial configuration: the empty profile, the generator's own
    profile ([Seeded] — only [Catalog]/[Family] carry one), or a
    seeded-random feasible profile (each node greedily buys shuffled
    targets while its budget allows). *)
type init = Empty | Seeded | Random_start

type sched = Round_robin | Random_order | Max_cost_first
type policy = Exact | First_improvement | Sampled of int  (** sample size *)

type t = {
  generator : generator;
  n : int;
  k : int;
  h : int;  (** Willows height (catalog constructions only) *)
  l : int;  (** Willows / max-anarchy tail (catalog constructions only) *)
  init : init;
  scheduler : sched;
  policy : policy;
  objective : Objective.t;
  max_rounds : int;
  seed : int;
}

type outcome = Converged | Cycled of int  (** period *) | Exhausted

type summary = {
  outcome : outcome;
  rounds : int;
  steps : int;
  deviations : int;
  social_cost : int;  (** of the final profile, under [objective] *)
  strongly_connected : bool;  (** of the final realized graph *)
}

val validate : t -> (unit, string) result
(** Structural checks that need no instance: sizes positive, sample
    positive, [Seeded] only on generators that carry a profile, known
    catalog / family names. *)

val build : t -> (Instance.t * Config.t, string) result
(** Materialize the instance and the initial configuration.  All
    randomness comes from streams split off [seed] in a fixed order, so
    the result is a pure function of the trial. *)

val scheduler_of : t -> Dynamics.scheduler
(** The exact scheduler value {!run} passes to {!Dynamics.run}
    ([Random_order] carries a sub-seed derived from [seed]). *)

val policy_of : t -> Dynamics.move_policy
(** The exact move policy {!run} passes to {!Dynamics.run} ([Sampled]
    carries a sub-seed derived from [seed]). *)

val run : ?on_step:(Dynamics.step -> unit) -> t -> (summary, string) result
(** [build], then {!Dynamics.run}, then summarize: outcome kind, walk
    statistics, final social cost, final strong connectivity.  [Error]
    only for invalid trials (validation or infeasible generator
    parameters); the walk itself cannot fail. *)

val label : t -> string
(** Aggregation cell key: generator, sizes, init, scheduler, policy and
    objective — everything except [seed] and [max_rounds], so the runs
    of one spec grid point share a label.  E.g.
    ["sparse(zero=55%,w<=3,n=12,k=2)/empty/round-robin/exact/sum"]. *)

(** {1 JSON}

    Canonical encodings (fixed field order; re-encoding a decoded value
    is the identity on the rendered string) of a unit's summary, for
    checkpoints, and of the trial components a spec names. *)

val summary_to_json : summary -> Json.t
val summary_of_json : Json.t -> (summary, string) result

val generator_to_json : generator -> Json.t
val generator_of_json : Json.t -> (generator, string) result
val policy_to_json : policy -> Json.t
val policy_of_json : Json.t -> (policy, string) result

val sched_name : sched -> string
val sched_of_name : string -> sched option
val init_name : init -> string
val init_of_name : string -> init option
