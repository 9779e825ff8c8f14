module I = Bbc.Instance
module C = Bbc.Config
module D = Bbc_graph.Digraph

let test_empty () =
  let c = C.empty 4 in
  Alcotest.(check int) "n" 4 (C.n c);
  Alcotest.(check (list int)) "empty strategy" [] (C.targets c 2)

let test_of_lists_sorted () =
  let c = C.of_lists 4 [| [ 3; 1 ]; []; [ 0 ]; [] |] in
  Alcotest.(check (list int)) "sorted targets" [ 1; 3 ] (C.targets c 0);
  Alcotest.(check int) "strategy size" 2 (C.strategy_size c 0)

let test_validation () =
  let expect_invalid f =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid (fun () -> C.of_lists 3 [| [ 0 ]; []; [] |]);
  (* self link *)
  expect_invalid (fun () -> C.of_lists 3 [| [ 5 ]; []; [] |]);
  (* out of range *)
  expect_invalid (fun () -> C.of_lists 3 [| [ 1; 1 ]; []; [] |]);
  (* duplicate *)
  expect_invalid (fun () -> C.of_lists 3 [| []; [] |])
(* wrong length *)

let test_with_strategy_persistent () =
  let c = C.of_lists 3 [| [ 1 ]; [ 2 ]; [] |] in
  let c' = C.with_strategy c 2 [ 0 ] in
  Alcotest.(check (list int)) "updated" [ 0 ] (C.targets c' 2);
  Alcotest.(check (list int)) "original unchanged" [] (C.targets c 2);
  Alcotest.(check bool) "not equal" false (C.equal c c')

let test_to_graph_lengths () =
  let w = Array.make_matrix 3 3 1 in
  let cost = Array.make_matrix 3 3 1 in
  let len = [| [| 1; 5; 1 |]; [| 1; 1; 2 |]; [| 1; 1; 1 |] |] in
  let inst = I.general ~weight:w ~cost ~length:len ~budget:[| 2; 2; 2 |] () in
  let c = C.of_lists 3 [| [ 1 ]; [ 2 ]; [] |] in
  let g = C.to_graph inst c in
  Alcotest.(check (option int)) "length carried" (Some 5) (List.assoc_opt 1 (D.out_edges g 0));
  Alcotest.(check (option int)) "length carried" (Some 2) (List.assoc_opt 2 (D.out_edges g 1))

let test_of_graph_roundtrip () =
  let inst = I.uniform ~n:5 ~k:2 in
  let c = C.of_lists 5 [| [ 1; 2 ]; [ 3 ]; []; [ 0; 4 ]; [ 2 ] |] in
  let c' = C.of_graph (C.to_graph inst c) in
  Alcotest.(check bool) "roundtrip" true (C.equal c c')

let test_spend_and_feasible () =
  let w = Array.make_matrix 3 3 0 in
  let cost = [| [| 0; 2; 3 |]; [| 1; 0; 1 |]; [| 1; 1; 0 |] |] in
  let ones = Array.make_matrix 3 3 1 in
  let inst = I.general ~weight:w ~cost ~length:ones ~budget:[| 4; 1; 0 |] () in
  let c = C.of_lists 3 [| [ 1; 2 ]; [ 0 ]; [] |] in
  Alcotest.(check bool) "infeasible" false (C.feasible inst c);
  let c' = C.with_strategy c 0 [ 1 ] in
  Alcotest.(check bool) "feasible" true (C.feasible inst c')

let test_equal_hash () =
  let a = C.of_lists 3 [| [ 1; 2 ]; []; [ 0 ] |] in
  let b = C.of_lists 3 [| [ 2; 1 ]; []; [ 0 ] |] in
  Alcotest.(check bool) "order-insensitive" true (C.equal a b);
  Alcotest.(check int) "hash agrees" (C.hash a) (C.hash b);
  let c = C.of_lists 3 [| [ 1 ]; [ 2 ]; [ 0 ] |] in
  Alcotest.(check bool) "different configs differ" false (C.equal a c)

let test_hash_distinguishes_position () =
  (* Same multiset of edges assigned to different nodes must hash apart
     (probabilistically); check a known tricky pair. *)
  let a = C.of_lists 3 [| [ 1 ]; []; [] |] in
  let b = C.of_lists 3 [| []; [ 2 ]; [] |] in
  Alcotest.(check bool) "not equal" false (C.equal a b);
  Alcotest.(check bool) "hash differs" true (C.hash a <> C.hash b)

let suite =
  [
    Alcotest.test_case "empty config" `Quick test_empty;
    Alcotest.test_case "of_lists sorts" `Quick test_of_lists_sorted;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "with_strategy is persistent" `Quick test_with_strategy_persistent;
    Alcotest.test_case "to_graph carries lengths" `Quick test_to_graph_lengths;
    Alcotest.test_case "of_graph roundtrip" `Quick test_of_graph_roundtrip;
    Alcotest.test_case "spend and feasibility" `Quick test_spend_and_feasible;
    Alcotest.test_case "equality and hash" `Quick test_equal_hash;
    Alcotest.test_case "hash distinguishes position" `Quick test_hash_distinguishes_position;
  ]
