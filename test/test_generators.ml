module D = Bbc_graph.Digraph
module G = Bbc_graph.Generators
module S = Bbc_graph.Scc
module SM = Bbc_prng.Splitmix

let test_ring () =
  let g = G.directed_ring 5 in
  Alcotest.(check int) "edges" 5 (D.edge_count g);
  Alcotest.(check bool) "strongly connected" true (S.is_strongly_connected g);
  for v = 0 to 4 do
    Alcotest.(check int) "out degree" 1 (D.out_degree g v)
  done

let test_path () =
  let g = G.directed_path 5 in
  Alcotest.(check int) "edges" 4 (D.edge_count g);
  Alcotest.(check int) "last node degree" 0 (D.out_degree g 4)

let test_complete () =
  let g = G.complete 4 in
  Alcotest.(check int) "edges" 12 (D.edge_count g)

let test_random_k_out () =
  let rng = SM.create 5 in
  let g = G.random_k_out rng ~n:40 ~k:3 in
  for v = 0 to 39 do
    Alcotest.(check int) "degree k" 3 (D.out_degree g v);
    Alcotest.(check bool) "no self loop" false (D.mem_edge g v v)
  done

let test_random_k_out_determinism () =
  let g1 = G.random_k_out (SM.create 8) ~n:20 ~k:2 in
  let g2 = G.random_k_out (SM.create 8) ~n:20 ~k:2 in
  Alcotest.(check bool) "same seed, same graph" true (D.equal g1 g2)

let test_random_k_out_full () =
  let rng = SM.create 9 in
  let g = G.random_k_out rng ~n:5 ~k:4 in
  Alcotest.(check int) "complete" 20 (D.edge_count g)

let test_gnp_extremes () =
  let rng = SM.create 10 in
  let empty = G.gnp rng ~n:10 ~p:0.0 in
  Alcotest.(check int) "p=0 empty" 0 (D.edge_count empty);
  let full = G.gnp rng ~n:10 ~p:1.0 in
  Alcotest.(check int) "p=1 complete" 90 (D.edge_count full)

let test_gnp_density () =
  let rng = SM.create 11 in
  let g = G.gnp rng ~n:50 ~p:0.2 in
  let m = D.edge_count g in
  (* Expected 490; allow wide slack. *)
  Alcotest.(check bool) "plausible density" true (m > 350 && m < 650)

let suite =
  [
    Alcotest.test_case "directed ring" `Quick test_ring;
    Alcotest.test_case "directed path" `Quick test_path;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "random k-out degrees" `Quick test_random_k_out;
    Alcotest.test_case "random k-out determinism" `Quick test_random_k_out_determinism;
    Alcotest.test_case "random k-out complete" `Quick test_random_k_out_full;
    Alcotest.test_case "gnp extremes" `Quick test_gnp_extremes;
    Alcotest.test_case "gnp density" `Quick test_gnp_density;
  ]
