module D = Bbc_graph.Digraph
module S = Bbc_graph.Scc
module G = Bbc_graph.Generators

let test_ring_is_one_component () =
  let g = G.directed_ring 8 in
  let scc = S.compute g in
  Alcotest.(check int) "one SCC" 1 scc.count;
  Alcotest.(check bool) "strongly connected" true (S.is_strongly_connected g)

let test_path_all_singletons () =
  let g = G.directed_path 5 in
  let scc = S.compute g in
  Alcotest.(check int) "five SCCs" 5 scc.count;
  Alcotest.(check bool) "not strongly connected" false (S.is_strongly_connected g)

let test_two_rings_bridged () =
  (* ring {0,1,2}, ring {3,4,5}, bridge 2 -> 3 *)
  let g = D.of_unit_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ] in
  let scc = S.compute g in
  Alcotest.(check int) "two SCCs" 2 scc.count;
  Alcotest.(check bool) "0,1,2 together" true
    (scc.component.(0) = scc.component.(1) && scc.component.(1) = scc.component.(2));
  Alcotest.(check bool) "3,4,5 together" true
    (scc.component.(3) = scc.component.(4) && scc.component.(4) = scc.component.(5));
  (* Reverse topological ids: the sink component {3,4,5} gets the lower id. *)
  Alcotest.(check bool) "sink has smaller id" true (scc.component.(3) < scc.component.(0))

let test_members_and_sizes () =
  let g = D.of_unit_edges 5 [ (0, 1); (1, 0); (2, 3) ] in
  let scc = S.compute g in
  let sizes = S.sizes scc in
  Alcotest.(check int) "component count" 4 scc.count;
  Alcotest.(check int) "total size" 5 (Array.fold_left ( + ) 0 sizes)

let test_condensation_is_dag () =
  let rng = Bbc_prng.Splitmix.create 4 in
  for _ = 1 to 10 do
    let g = G.gnp rng ~n:25 ~p:0.08 in
    let scc = S.compute g in
    let cond = S.condensation g scc in
    let scc2 = S.compute cond in
    (* A DAG's SCCs are all singletons. *)
    Alcotest.(check int) "condensation is a DAG" (D.n cond) scc2.count
  done

let test_empty_graph () =
  let g = D.create 0 in
  Alcotest.(check bool) "vacuously connected" true (S.is_strongly_connected g)

let test_deep_graph () =
  let g = G.directed_ring 100_000 in
  Alcotest.(check bool) "large ring, iterative Tarjan" true (S.is_strongly_connected g)

let test_component_edges_respect_order () =
  (* Every cross-component edge goes from a higher id to a lower id. *)
  let rng = Bbc_prng.Splitmix.create 17 in
  for _ = 1 to 10 do
    let g = G.gnp rng ~n:30 ~p:0.07 in
    let scc = S.compute g in
    D.iter_edges g (fun u v _ ->
        if scc.component.(u) <> scc.component.(v) then
          Alcotest.(check bool) "reverse topological ids" true
            (scc.component.(u) > scc.component.(v)))
  done

let suite =
  [
    Alcotest.test_case "ring" `Quick test_ring_is_one_component;
    Alcotest.test_case "path" `Quick test_path_all_singletons;
    Alcotest.test_case "two rings bridged" `Quick test_two_rings_bridged;
    Alcotest.test_case "members and sizes" `Quick test_members_and_sizes;
    Alcotest.test_case "condensation is a DAG" `Quick test_condensation_is_dag;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "100k-node ring (iterative)" `Quick test_deep_graph;
    Alcotest.test_case "component id order" `Quick test_component_edges_respect_order;
  ]
