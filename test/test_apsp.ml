module A = Bbc_graph.Apsp
module D = Bbc_graph.Digraph
module R = Bbc_fuzz.Reference
module M = Bbc_graph.Metrics
module G = Bbc_graph.Generators
module SM = Bbc_prng.Splitmix

let test_matches_dijkstra_random () =
  let rng = SM.create 31 in
  for _ = 1 to 15 do
    let g = G.gnp rng ~n:20 ~p:0.15 in
    (* Randomize lengths to exercise the weighted path. *)
    D.iter_edges g (fun u v _ -> D.add_edge g u v (1 + SM.int rng 5));
    let apsp = A.compute g in
    for u = 0 to 19 do
      let d = R.dijkstra g u in
      for v = 0 to 19 do
        Alcotest.(check int) "apsp = dijkstra" d.(v) (A.distance apsp u v)
      done
    done
  done

let test_diagonal_zero () =
  let g = G.directed_ring 5 in
  let apsp = A.compute g in
  for v = 0 to 4 do
    Alcotest.(check int) "diagonal" 0 (A.distance apsp v v)
  done

let test_unreachable () =
  let g = G.directed_path 4 in
  let apsp = A.compute g in
  Alcotest.(check int) "backwards" Bbc_graph.Csr.unreachable (A.distance apsp 3 0)

(* The diameter read straight off the Floyd–Warshall oracle matrix. *)
let oracle_diameter g =
  let m = R.floyd_warshall g in
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc d ->
          match acc with
          | Some a when d <> Bbc_graph.Csr.unreachable -> Some (max a d)
          | _ -> None)
        acc row)
    (Some 0) m

let test_diameter_agrees () =
  let rng = SM.create 37 in
  for _ = 1 to 10 do
    let g = G.random_k_out rng ~n:15 ~k:2 in
    Alcotest.(check (option int)) "diameter agreement" (oracle_diameter g) (M.diameter g)
  done

let test_eccentricity () =
  let g = G.directed_ring 6 in
  Alcotest.(check (option int)) "ring diameter" (Some 5) (M.diameter g);
  let h = G.directed_path 3 in
  Alcotest.(check (option int)) "radius" (Some 2) (M.radius h)

let test_parallel_edge_min () =
  (* A longer direct edge must lose to a shorter relay path. *)
  let g = D.of_edges 3 [ (0, 1, 9); (0, 2, 1); (2, 1, 1) ] in
  let apsp = A.compute g in
  Alcotest.(check int) "relay wins" 2 (A.distance apsp 0 1)

let suite =
  [
    Alcotest.test_case "matches dijkstra" `Quick test_matches_dijkstra_random;
    Alcotest.test_case "diagonal zero" `Quick test_diagonal_zero;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "diameter agrees" `Quick test_diameter_agrees;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    Alcotest.test_case "relay beats direct" `Quick test_parallel_edge_min;
  ]
