module D = Bbc_graph.Digraph
module T = Bbc_graph.Traversal
module G = Bbc_graph.Generators

let test_reach_on_path () =
  let g = G.directed_path 5 in
  Alcotest.(check int) "head reaches all" 5 (T.reach g 0);
  Alcotest.(check int) "tail reaches itself" 1 (T.reach g 4)

let test_reach_on_ring () =
  let g = G.directed_ring 7 in
  for v = 0 to 6 do
    Alcotest.(check int) "everyone reaches all" 7 (T.reach g v)
  done

let test_reachable_set () =
  let g = D.of_unit_edges 5 [ (0, 1); (1, 2); (3, 4) ] in
  let s = T.reachable_set g 0 in
  Alcotest.(check (array bool)) "set" [| true; true; true; false; false |] s

let test_isolated () =
  let g = D.create 3 in
  Alcotest.(check int) "isolated vertex reach" 1 (T.reach g 1)

let suite =
  [
    Alcotest.test_case "reach on a path" `Quick test_reach_on_path;
    Alcotest.test_case "reach on a ring" `Quick test_reach_on_ring;
    Alcotest.test_case "reachable set" `Quick test_reachable_set;
    Alcotest.test_case "isolated vertices" `Quick test_isolated;
  ]
