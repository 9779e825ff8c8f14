module I = Bbc.Instance
module C = Bbc.Config
module E = Bbc.Eval

let ring_config n = C.of_lists n (Array.init n (fun v -> [ (v + 1) mod n ]))

let test_ring_cost () =
  (* Directed ring on 5 nodes: each node's cost is 1+2+3+4 = 10. *)
  let inst = I.uniform ~n:5 ~k:1 in
  let c = ring_config 5 in
  for v = 0 to 4 do
    Alcotest.(check int) "node cost" 10 (E.node_cost inst c v)
  done;
  Alcotest.(check int) "social" 50 (E.social_cost inst c)

let test_disconnection_penalty () =
  let inst = I.uniform ~n:3 ~k:1 in
  let m = I.penalty inst in
  let c = C.of_lists 3 [| [ 1 ]; []; [] |] in
  Alcotest.(check int) "0 reaches 1, misses 2" (1 + m) (E.node_cost inst c 0);
  Alcotest.(check int) "1 isolated" (2 * m) (E.node_cost inst c 1)

let test_weights_multiply () =
  let w = [| [| 0; 3; 7 |]; [| 0; 0; 0 |]; [| 0; 0; 0 |] |] in
  let inst = I.of_weights ~k:2 w in
  let c = C.of_lists 3 [| [ 1 ]; [ 2 ]; [] |] in
  (* d(0,1)=1 w3, d(0,2)=2 w7 *)
  Alcotest.(check int) "weighted" (3 + 14) (E.node_cost inst c 0)

let test_zero_weight_ignores_unreachable () =
  (* A zero-preference target contributes nothing even when unreachable. *)
  let w = [| [| 0; 1; 0 |]; [| 0; 0; 0 |]; [| 0; 0; 0 |] |] in
  let inst = I.of_weights ~k:1 w in
  let c = C.of_lists 3 [| [ 1 ]; []; [] |] in
  Alcotest.(check int) "only the weighted term" 1 (E.node_cost inst c 0)

let test_lengths_respected () =
  let ones = Array.make_matrix 3 3 1 in
  let len = [| [| 1; 4; 1 |]; [| 1; 1; 6 |]; [| 1; 1; 1 |] |] in
  let inst = I.general ~weight:ones ~cost:ones ~length:len ~budget:[| 1; 1; 1 |] () in
  let c = C.of_lists 3 [| [ 1 ]; [ 2 ]; [ 0 ] |] in
  (* d(0,1)=4, d(0,2)=4+6=10 *)
  Alcotest.(check int) "weighted lengths" 14 (E.node_cost inst c 0)

let test_max_objective () =
  let inst = I.uniform ~n:5 ~k:1 in
  let c = ring_config 5 in
  for v = 0 to 4 do
    Alcotest.(check int) "max distance" 4 (E.node_cost ~objective:Max inst c v)
  done;
  Alcotest.(check int) "social max" 20 (E.social_cost ~objective:Max inst c)

let test_max_objective_penalty () =
  let inst = I.uniform ~n:4 ~k:1 in
  let c = C.of_lists 4 [| [ 1 ]; []; []; [] |] in
  Alcotest.(check int) "max = penalty" (I.penalty inst) (E.node_cost ~objective:Max inst c 0)

let test_all_costs_matches_node_cost () =
  let inst = I.uniform ~n:6 ~k:2 in
  let c =
    C.of_lists 6 [| [ 1; 2 ]; [ 3 ]; [ 4; 5 ]; [ 0 ]; [ 1 ]; [ 0; 3 ] |]
  in
  let all = E.all_costs inst c in
  for v = 0 to 5 do
    Alcotest.(check int) "agree" (E.node_cost inst c v) all.(v)
  done

(* [node_cost] sweeps a flat snapshot; the list digraph with
   the list-graph oracle must give the same cost on unit and weighted
   lengths, for both objectives. *)
let test_list_graph_agrees () =
  let len = [| [| 1; 4; 1 |]; [| 1; 1; 6 |]; [| 1; 1; 1 |] |] in
  let ones = Array.make_matrix 3 3 1 in
  let cases =
    [
      (I.uniform ~n:5 ~k:1, ring_config 5);
      (I.uniform ~n:4 ~k:1, C.of_lists 4 [| [ 1 ]; []; [ 0 ]; [ 2 ] |]);
      ( I.general ~weight:ones ~cost:ones ~length:len ~budget:[| 2; 1; 1 |] (),
        C.of_lists 3 [| [ 1; 2 ]; [ 2 ]; [] |] );
    ]
  in
  List.iter
    (fun (inst, c) ->
      let g = C.to_graph inst c in
      List.iter
        (fun objective ->
          for u = 0 to I.n inst - 1 do
            Alcotest.(check int) "list graph"
              (E.cost_of_distances ~objective inst u (Bbc_fuzz.Reference.shortest g u))
              (E.node_cost ~objective inst c u)
          done)
        [ Bbc.Objective.Sum; Bbc.Objective.Max ])
    cases

let test_shared_cost_of_distances () =
  let inst = I.uniform ~n:4 ~k:1 in
  let dist = [| 0; 2; Bbc_graph.Csr.unreachable; 1 |] in
  Alcotest.(check int) "fold with penalty" (2 + I.penalty inst + 1)
    (E.cost_of_distances inst 0 dist)

let suite =
  [
    Alcotest.test_case "ring cost" `Quick test_ring_cost;
    Alcotest.test_case "disconnection penalty" `Quick test_disconnection_penalty;
    Alcotest.test_case "weights multiply distances" `Quick test_weights_multiply;
    Alcotest.test_case "zero weight ignores unreachable" `Quick test_zero_weight_ignores_unreachable;
    Alcotest.test_case "lengths respected" `Quick test_lengths_respected;
    Alcotest.test_case "max objective" `Quick test_max_objective;
    Alcotest.test_case "max objective penalty" `Quick test_max_objective_penalty;
    Alcotest.test_case "all_costs consistency" `Quick test_all_costs_matches_node_cost;
    Alcotest.test_case "list graph agrees" `Quick test_list_graph_agrees;
    Alcotest.test_case "cost_of_distances" `Quick test_shared_cost_of_distances;
  ]
