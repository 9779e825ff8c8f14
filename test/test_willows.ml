module W = Bbc.Willows
module I = Bbc.Instance
module C = Bbc.Config

let test_sizes () =
  (* k=2, h=3: tree 15 nodes, 8 leaves. *)
  let p = W.{ k = 2; h = 3; l = 0 } in
  Alcotest.(check int) "tree size" 15 (W.tree_size p);
  Alcotest.(check int) "section" 15 (W.section_size p);
  Alcotest.(check int) "n" 30 (W.size p);
  let p1 = { p with l = 2 } in
  Alcotest.(check int) "with tails" (2 * (15 + (8 * 2))) (W.size p1);
  (* Matches the paper's k=2 formula n = k (2^{h+1} - 1 + 2^h l). *)
  Alcotest.(check int) "paper formula" (2 * (16 - 1 + (8 * 2))) (W.size p1)

let test_restriction () =
  Alcotest.(check bool) "k2 h3 l0 ok" true
    (W.satisfies_paper_restriction { k = 2; h = 3; l = 0 });
  Alcotest.(check bool) "huge tail fails" false
    (W.satisfies_paper_restriction { k = 2; h = 1; l = 50 });
  let lmax = W.max_tail_for ~k:2 ~h:3 in
  Alcotest.(check bool) "max tail positive" true (lmax >= 1);
  Alcotest.(check bool) "max tail is maximal" true
    (W.satisfies_paper_restriction { k = 2; h = 3; l = lmax }
    && not (W.satisfies_paper_restriction { k = 2; h = 3; l = lmax + 1 }))

let test_roots_and_sections () =
  let p = W.{ k = 3; h = 2; l = 1 } in
  let roots = W.roots p in
  Alcotest.(check int) "k roots" 3 (List.length roots);
  List.iteri
    (fun i r ->
      Alcotest.(check int) "root id" (i * W.section_size p) r;
      Alcotest.(check int) "root section" i (r / W.section_size p))
    roots

let test_budget_exactly_k () =
  let p = W.{ k = 2; h = 2; l = 3 } in
  let _, config = W.build p in
  for v = 0 to W.size p - 1 do
    Alcotest.(check int) "every node spends k" 2 (C.strategy_size config v)
  done

let test_feasible_and_connected () =
  let p = W.{ k = 3; h = 1; l = 2 } in
  let inst, config = W.build p in
  Alcotest.(check bool) "feasible" true (C.feasible inst config);
  Alcotest.(check bool) "strongly connected" true
    (Bbc_graph.Scc.is_strongly_connected (C.to_graph inst config))

let test_stability_small () =
  (* Lemma 6, verified exactly at several parameter points. *)
  List.iter
    (fun (k, h, l) ->
      let p = W.{ k; h; l } in
      let inst, config = W.build p in
      Alcotest.(check bool)
        (Format.asprintf "%a stable" W.pp_params p)
        true
        (Bbc.Stability.is_stable inst config))
    [ (2, 1, 0); (2, 2, 0); (2, 2, 1); (2, 3, 0); (2, 3, 1); (3, 1, 0) ]

let test_stability_larger () =
  let p = W.{ k = 2; h = 3; l = 2 } in
  let inst, config = W.build p in
  Alcotest.(check bool) "n=62 stable" true (Bbc.Stability.is_stable inst config)

let test_l0_cost_near_optimal () =
  (* The l=0 willows are the PoS Theta(1) witnesses: social cost within a
     small constant of the degree-k lower bound. *)
  let p = W.{ k = 2; h = 3; l = 0 } in
  let inst, config = W.build p in
  let ratio = Bbc.Metrics.anarchy_ratio inst config in
  Alcotest.(check bool) "within 3x of the lower bound" true (ratio < 3.0)

let test_tails_raise_cost () =
  let base = W.{ k = 2; h = 3; l = 0 } in
  let tailed = W.{ k = 2; h = 3; l = 2 } in
  let i0, c0 = W.build base in
  let i1, c1 = W.build tailed in
  let r0 = Bbc.Metrics.anarchy_ratio i0 c0 in
  let r1 = Bbc.Metrics.anarchy_ratio i1 c1 in
  Alcotest.(check bool) "tails increase the anarchy ratio" true (r1 > r0)

let test_fairness_lemma1 () =
  let p = W.{ k = 2; h = 3; l = 1 } in
  let inst, config = W.build p in
  let n = W.size p in
  let f = Bbc.Metrics.fairness inst config in
  Alcotest.(check bool) "spread within Lemma 1" true
    (f.spread <= Bbc.Metrics.lemma1_spread_bound ~n ~k:2)

let test_validation () =
  let expect_invalid p =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (W.build p);
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid W.{ k = 1; h = 2; l = 0 };
  expect_invalid W.{ k = 2; h = 0; l = 0 };
  expect_invalid W.{ k = 2; h = 2; l = -1 }

let test_instance_is_uniform () =
  let inst, _ = W.build W.{ k = 2; h = 2; l = 0 } in
  Alcotest.(check (option int)) "k" (Some 2) (I.uniform_k inst)

let suite =
  [
    Alcotest.test_case "sizes" `Quick test_sizes;
    Alcotest.test_case "paper restriction" `Quick test_restriction;
    Alcotest.test_case "roots and sections" `Quick test_roots_and_sections;
    Alcotest.test_case "budgets fully used" `Quick test_budget_exactly_k;
    Alcotest.test_case "feasible and connected" `Quick test_feasible_and_connected;
    Alcotest.test_case "stability (small sweep)" `Quick test_stability_small;
    Alcotest.test_case "stability n=62" `Slow test_stability_larger;
    Alcotest.test_case "l=0 near-optimal" `Quick test_l0_cost_near_optimal;
    Alcotest.test_case "tails raise cost" `Quick test_tails_raise_cost;
    Alcotest.test_case "fairness within lemma 1" `Quick test_fairness_lemma1;
    Alcotest.test_case "parameter validation" `Quick test_validation;
    Alcotest.test_case "uniform instance" `Quick test_instance_is_uniform;
  ]
