module D = Bbc_graph.Digraph

let test_empty () =
  let g = D.create 4 in
  Alcotest.(check int) "n" 4 (D.n g);
  Alcotest.(check int) "no edges" 0 (D.edge_count g);
  Alcotest.(check (list (triple int int int))) "edges" [] (D.edges g)

let test_add_and_query () =
  let g = D.create 3 in
  D.add_edge g 0 1 5;
  D.add_edge g 1 2 1;
  Alcotest.(check int) "edge count" 2 (D.edge_count g);
  Alcotest.(check bool) "mem 0->1" true (D.mem_edge g 0 1);
  Alcotest.(check bool) "not mem 1->0" false (D.mem_edge g 1 0);
  Alcotest.(check (option int)) "length" (Some 5) (List.assoc_opt 1 (D.out_edges g 0));
  Alcotest.(check (option int)) "absent" None (List.assoc_opt 0 (D.out_edges g 2))

let test_replace_edge () =
  let g = D.create 3 in
  D.add_edge g 0 1 5;
  D.add_edge g 0 1 9;
  Alcotest.(check int) "still one edge" 1 (D.edge_count g);
  Alcotest.(check (option int)) "updated length" (Some 9) (List.assoc_opt 1 (D.out_edges g 0))

let test_self_loop_rejected () =
  let g = D.create 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_edge: self-loop")
    (fun () -> D.add_edge g 1 1 1)

let test_negative_length_rejected () =
  let g = D.create 2 in
  Alcotest.check_raises "negative" (Invalid_argument "Digraph.add_edge: negative length")
    (fun () -> D.add_edge g 0 1 (-1))

let test_out_of_range () =
  let g = D.create 2 in
  Alcotest.(check bool) "raises" true
    (try
       D.add_edge g 0 5 1;
       false
     with Invalid_argument _ -> true)

let test_of_unit_edges () =
  let g = D.of_unit_edges 3 [ (0, 1); (2, 0) ] in
  Alcotest.(check (option int)) "unit" (Some 1) (List.assoc_opt 0 (D.out_edges g 2))

let test_equal () =
  let g = D.of_edges 3 [ (0, 1, 1); (1, 2, 2) ] in
  let h = D.of_edges 3 [ (1, 2, 2); (0, 1, 1) ] in
  Alcotest.(check bool) "order-insensitive equality" true (D.equal g h);
  D.add_edge h 2 0 1;
  Alcotest.(check bool) "differs" false (D.equal g h)

let test_iter_edges () =
  let g = D.of_edges 4 [ (0, 1, 1); (1, 2, 3); (3, 0, 2) ] in
  let total = D.fold_edges g (fun acc _ _ len -> acc + len) 0 in
  Alcotest.(check int) "fold lengths" 6 total;
  let count = ref 0 in
  D.iter_edges g (fun _ _ _ -> incr count);
  Alcotest.(check int) "iter count" 3 !count

let test_out_edges () =
  let g = D.of_edges 4 [ (0, 1, 1); (0, 2, 5); (0, 3, 2) ] in
  let sorted = List.sort compare (D.out_edges g 0) in
  Alcotest.(check (list (pair int int))) "out edges" [ (1, 1); (2, 5); (3, 2) ] sorted;
  Alcotest.(check int) "degree" 3 (D.out_degree g 0)

let suite =
  [
    Alcotest.test_case "empty graph" `Quick test_empty;
    Alcotest.test_case "add and query" `Quick test_add_and_query;
    Alcotest.test_case "replace edge" `Quick test_replace_edge;
    Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
    Alcotest.test_case "negative length rejected" `Quick test_negative_length_rejected;
    Alcotest.test_case "out of range rejected" `Quick test_out_of_range;
    Alcotest.test_case "of_unit_edges" `Quick test_of_unit_edges;
    Alcotest.test_case "structural equality" `Quick test_equal;
    Alcotest.test_case "iter/fold edges" `Quick test_iter_edges;
    Alcotest.test_case "out edges" `Quick test_out_edges;
  ]
