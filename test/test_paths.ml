(* Shortest-path cases run twice with the same expected values: once on
   the list-graph oracle ([Bbc_fuzz.Reference]) and once on the CSR
   kernel every library layer sweeps. *)

module D = Bbc_graph.Digraph
module Csr = Bbc_graph.Csr
module R = Bbc_fuzz.Reference
module G = Bbc_graph.Generators

(* A fresh row from one CSR kernel sweep of [g]. *)
let kernel (sweep : ?ban:int -> Csr.t -> Csr.scratch -> src:int -> dist:int array -> unit) g src =
  let dist = Array.make (D.n g) Csr.unreachable in
  sweep (Csr.of_digraph g) (Csr.create_scratch ()) ~src ~dist;
  dist

(* Each case body runs once per engine, named in its messages. *)
let bfs = [ ("oracle", R.bfs); ("csr", kernel Csr.bfs) ]
let dijkstra = [ ("oracle", R.dijkstra); ("csr", kernel Csr.dijkstra) ]
let shortest = [ ("oracle", R.shortest); ("csr", kernel Csr.sssp) ]

let test_bfs_line () =
  let g = G.directed_path 5 in
  bfs |> List.iter (fun (engine, bfs) ->
      Alcotest.(check (array int)) (engine ^ ": distances") [| 0; 1; 2; 3; 4 |] (bfs g 0))

let test_bfs_unreachable () =
  let g = G.directed_path 4 in
  bfs |> List.iter (fun (engine, bfs) ->
      let d = bfs g 2 in
      Alcotest.(check int) (engine ^ ": behind source") Csr.unreachable d.(0);
      Alcotest.(check int) (engine ^ ": ahead") 1 d.(3))

let test_bfs_ring () =
  let g = G.directed_ring 6 in
  bfs |> List.iter (fun (engine, bfs) -> Alcotest.(check int) (engine ^ ": wraps") 3 (bfs g 4).(1))

let test_dijkstra_weighted () =
  (* 0 -> 1 (10), 0 -> 2 (1), 2 -> 1 (2): shortest 0->1 is 3 via 2. *)
  let g = D.of_edges 3 [ (0, 1, 10); (0, 2, 1); (2, 1, 2) ] in
  dijkstra |> List.iter (fun (engine, dijkstra) ->
      Alcotest.(check int) (engine ^ ": via relay") 3 (dijkstra g 0).(1))

let test_dijkstra_zero_length () =
  let g = D.of_edges 3 [ (0, 1, 0); (1, 2, 0) ] in
  dijkstra |> List.iter (fun (engine, dijkstra) ->
      Alcotest.(check int) (engine ^ ": zero-length edges") 0 (dijkstra g 0).(2))

let test_dijkstra_matches_bfs_on_unit () =
  let rng = Bbc_prng.Splitmix.create 99 in
  for _ = 1 to 20 do
    let g = G.random_k_out rng ~n:30 ~k:3 in
    let src = Bbc_prng.Splitmix.int rng 30 in
    let expected = R.bfs g src in
    Alcotest.(check (array int)) "oracle: bfs = dijkstra" expected (R.dijkstra g src);
    Alcotest.(check (array int)) "csr: dijkstra = oracle bfs" expected (kernel Csr.dijkstra g src)
  done

let test_shortest_dispatch () =
  let g = D.of_edges 3 [ (0, 1, 1); (1, 2, 1) ] in
  Alcotest.(check bool) "unit lengths" true (D.all_unit_lengths g);
  Alcotest.(check bool) "csr unit lengths" true (Csr.unit_lengths (Csr.of_digraph g));
  D.add_edge g 0 2 7;
  Alcotest.(check bool) "no longer unit" false (D.all_unit_lengths g);
  Alcotest.(check bool) "csr no longer unit" false (Csr.unit_lengths (Csr.of_digraph g));
  shortest |> List.iter (fun (engine, shortest) ->
      Alcotest.(check int) (engine ^ ": shortest uses lengths") 2 (shortest g 0).(2))

let test_distance () =
  let g = G.directed_ring 5 in
  let h = G.directed_path 3 in
  shortest |> List.iter (fun (engine, shortest) ->
      Alcotest.(check int) (engine ^ ": around the ring") 4 (shortest g 1).(0);
      Alcotest.(check int) (engine ^ ": unreachable") Csr.unreachable (shortest h 2).(0))

let test_deep_graph_no_overflow () =
  (* A 100k-node path: traversals must not use O(n) call stack. *)
  let g = G.directed_path 100_000 in
  bfs |> List.iter (fun (engine, bfs) ->
      Alcotest.(check int) (engine ^ ": far end") 99_999 (bfs g 0).(99_999))

let suite =
  [
    Alcotest.test_case "bfs on a line" `Quick test_bfs_line;
    Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
    Alcotest.test_case "bfs ring wrap" `Quick test_bfs_ring;
    Alcotest.test_case "dijkstra weighted relay" `Quick test_dijkstra_weighted;
    Alcotest.test_case "dijkstra zero lengths" `Quick test_dijkstra_zero_length;
    Alcotest.test_case "dijkstra = bfs on unit graphs" `Quick test_dijkstra_matches_bfs_on_unit;
    Alcotest.test_case "shortest dispatch" `Quick test_shortest_dispatch;
    Alcotest.test_case "distance" `Quick test_distance;
    Alcotest.test_case "deep graph traversal" `Quick test_deep_graph_no_overflow;
  ]
