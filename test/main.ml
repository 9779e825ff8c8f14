(* Test entry point: one Alcotest suite per module of the library. *)

let () =
  Alcotest.run "bbc"
    [
      ("prng", Test_prng.suite);
      ("digraph", Test_digraph.suite);
      ("heap", Test_heap.suite);
      ("paths", Test_paths.suite);
      ("csr", Test_csr.suite);
      ("scc", Test_scc.suite);
      ("traversal", Test_traversal.suite);
      ("graph-metrics", Test_graph_metrics.suite);
      ("generators", Test_generators.suite);
      ("dot", Test_dot.suite);
      ("apsp", Test_apsp.suite);
      ("centrality", Test_centrality.suite);
      ("flow", Test_flow.suite);
      ("sat", Test_sat.suite);
      ("group", Test_group.suite);
      ("instance", Test_instance.suite);
      ("config", Test_config.suite);
      ("eval", Test_eval.suite);
      ("best-response", Test_best_response.suite);
      ("functional", Test_functional.suite);
      ("stability", Test_stability.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("dynamics", Test_dynamics.suite);
      ("metrics", Test_metrics.suite);
      ("willows", Test_willows.suite);
      ("willows-sampling", Test_willows_sampling.suite);
      ("cayley-game", Test_cayley_game.suite);
      ("constructions", Test_constructions.suite);
      ("gadget", Test_gadget.suite);
      ("reduction", Test_reduction.suite);
      ("fractional", Test_fractional.suite);
      ("potential", Test_potential.suite);
      ("social-optimum", Test_social_optimum.suite);
      ("codec", Test_codec.suite);
      ("json", Test_json.suite);
      ("gen-instance", Test_gen_instance.suite);
      ("fabrikant", Test_fabrikant.suite);
      ("experiments-table", Test_table.suite);
      ("properties", Test_props.suite);
      ("parallel", Test_parallel.suite);
      ("obs", Test_obs.suite);
      ("bigbench", Test_bigbench.suite);
      ("server", Test_server.suite);
      ("linebuf", Test_linebuf.suite);
      ("fuzz", Test_fuzz.suite);
      ("parsers", Test_parsers.suite);
      ("campaign", Test_campaign.suite);
      ("experiments-registry", Test_experiments.suite);
    ]
