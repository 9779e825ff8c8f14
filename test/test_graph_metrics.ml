module D = Bbc_graph.Digraph
module M = Bbc_graph.Metrics
module G = Bbc_graph.Generators

let test_ring_diameter () =
  let g = G.directed_ring 6 in
  Alcotest.(check (option int)) "diameter" (Some 5) (M.diameter g);
  Alcotest.(check (option int)) "radius" (Some 5) (M.radius g)

let test_path_diameter_none () =
  let g = G.directed_path 4 in
  Alcotest.(check (option int)) "not strongly connected" None (M.diameter g);
  (* The head still reaches everyone: radius is defined. *)
  Alcotest.(check (option int)) "radius from head" (Some 3) (M.radius g)

let test_complete () =
  let g = G.complete 5 in
  Alcotest.(check (option int)) "diameter 1" (Some 1) (M.diameter g)

let test_weighted_diameter () =
  let g = D.of_edges 3 [ (0, 1, 5); (1, 2, 5); (2, 0, 5) ] in
  Alcotest.(check (option int)) "weighted" (Some 10) (M.diameter g)

let test_singleton () =
  let g = D.create 1 in
  Alcotest.(check (option int)) "diameter of a point" (Some 0) (M.diameter g)

let suite =
  [
    Alcotest.test_case "ring diameter/radius" `Quick test_ring_diameter;
    Alcotest.test_case "path has no diameter" `Quick test_path_diameter_none;
    Alcotest.test_case "complete graph" `Quick test_complete;
    Alcotest.test_case "weighted diameter" `Quick test_weighted_diameter;
    Alcotest.test_case "singleton graph" `Quick test_singleton;
  ]
