(** Differential suites: every engine pair under one generated input.

    Each suite is a list of named properties over {!Domain_gen}
    generators, executed by {!Runner.run}; a mismatch is shrunk to a
    minimal instance and reported with the shrunk counterexample's
    instance/configuration (printable as [bbc convert]-loadable JSON).

    Engine pairs covered:
    - [csr] — list-graph oracles ({!Reference.shortest},
      {!Reference.floyd_warshall}) vs flat CSR kernels, including
      [~ban:u] sweeps vs the oracle on the profile without [u]'s links;
    - [msbfs] — bit-parallel [Csr.sssp_batch] vs per-source sweeps on
      instances crossing the [Csr.batch_width] window boundary (ragged
      tails, [~ban], shuffled/duplicated source subsets, scratch reuse
      with [reset_rows]), and on digraphs with zero-length edges and
      lengths past [Csr.ring_max_length] vs the list-graph oracle;
    - [br] — [Best_response.exact] vs exhaustive strategy enumeration
      on tiny instances; the full [Best_response.enumerate]
      (strategy, cost) sequence and [improving]'s verdict with and
      without a shared [?csr] snapshot and on the uniform [k = 1]
      closed form vs
      {!Reference.enumerate} (Sum and Max); [decide ~search:Exact],
      bounded where the budget buys three links, vs the first minimum of
      [enumerate] and [Eval.node_cost] on games with budgets up to 5; on the same [k = 1] walks,
      [Functional.scan] vs per-node walk counts and the scans built on
      it ([Stability]'s verdicts and deviation, [Eval.all_costs])
      vs one decision per node and [Eval.node_cost]; every
      [Best_response.decide] search's current and best cost, and every
      [Dynamics] step's [cost_after] (three policies, round-robin and
      max-cost, possibly overspending starts), vs [Eval.node_cost];
      the profile-space engine ([Exhaustive.search] at several limits
      and budgets, [Social_optimum.analyze], [Potential]'s improvement
      graph and FIP verdict; one and two jobs) vs {!Reference.search},
      {!Reference.analyze} and {!Reference.improvement_arcs} on games
      with n <= 5; and
      [Social_optimum.local_search] vs {!Reference.local_search} (same
      seed, Sum and Max: identical cost and profile);
    - [server] — in-process [Bbc_server.Engine] request streams vs
      direct scratch-engine calls on a mirrored session;
    - [campaign] — {!Bbc_campaign.Spec} / {!Bbc.Trial} JSON codecs
      round-trip canonically, and a 1-unit campaign's activation trace
      is bit-identical to a direct [Dynamics.run] on the same
      materialized inputs;
    - [selfcheck] — a deliberately broken test-only oracle (social
      cost computed skipping node 0).  Expected to FAIL: it exists to
      prove the harness finds planted bugs and shrinks them
      ([scripts/check_fuzz.sh] asserts the shrunk instance has
      [n <= 8]). *)

type options = {
  seed : int;
  count : int;  (** cases per property *)
  max_shrink_steps : int;
}

type failure_report = {
  prop : string;
  case : int;  (** 0-based failing case index *)
  steps_used : int;  (** shrink budget consumed *)
  message : string;  (** the shrunk counterexample's mismatch *)
  instance : Bbc.Instance.t;  (** shrunk *)
  config : Bbc.Config.t option;  (** shrunk, when the input carries one *)
  detail : string;  (** extra shrunk input (moves / request program) *)
}

type prop_report = {
  suite : string;
  name : string;
  prop_seed : int;  (** the derived seed this property ran under *)
  stats : Runner.stats;
  failure : failure_report option;
}

val suite_names : string list
(** [csr; msbfs; br; server; campaign; selfcheck]. *)

val all_suites : string list
(** What [--suite all] runs: every suite except [selfcheck], which is
    expected to fail. *)

val expand_suites : string -> (string list, string) result
(** Resolve a [--suite] argument: a name from {!suite_names}, or [all]
    ({!all_suites}). *)

val run_suite : options -> string -> (prop_report list, string) result
(** Run every property of one suite.  [Error] only for an unknown suite
    name or a generator discard overflow. *)
