module A = Bbc_group.Abelian
module C = Bbc_group.Cayley
module D = Bbc_graph.Digraph
module Scc = Bbc_graph.Scc
module SM = Bbc_prng.Splitmix

let test_cyclic_arithmetic () =
  let g = A.cyclic 7 in
  Alcotest.(check int) "order" 7 (A.order g);
  Alcotest.(check int) "3 + 5 = 1" 1 (A.add g 3 5);
  Alcotest.(check int) "-3 = 4" 4 (A.neg g 3);
  Alcotest.(check int) "5 - 3 = 2" 2 (A.sub g 5 3)

let test_product_coords () =
  let g = A.create [ 3; 4 ] in
  Alcotest.(check int) "order" 12 (A.order g);
  let x = A.of_coords g [ 2; 3 ] in
  Alcotest.(check (list int)) "roundtrip" [ 2; 3 ] (A.to_coords g x);
  let y = A.of_coords g [ 1; 2 ] in
  Alcotest.(check (list int)) "componentwise add" [ 0; 1 ] (A.to_coords g (A.add g x y))

let test_of_coords_reduces () =
  let g = A.create [ 3; 4 ] in
  Alcotest.(check (list int)) "mod reduction" [ 1; 3 ]
    (A.to_coords g (A.of_coords g [ 4; -1 ]))

let test_identity_and_order () =
  let g = A.boolean_cube 3 in
  Alcotest.(check int) "order 8" 8 (A.order g);
  Alcotest.(check int) "identity" 0 (A.identity g)

let test_group_axioms_sampled () =
  let g = A.create [ 4; 3; 2 ] in
  let rng = SM.create 3 in
  for _ = 1 to 200 do
    let x = SM.int rng 24 and y = SM.int rng 24 and z = SM.int rng 24 in
    Alcotest.(check int) "commutative" (A.add g x y) (A.add g y x);
    Alcotest.(check int) "associative" (A.add g (A.add g x y) z) (A.add g x (A.add g y z));
    Alcotest.(check int) "inverse" (A.identity g) (A.add g x (A.neg g x))
  done

let test_circulant_structure () =
  let c = C.circulant ~n:10 ~offsets:[ 1; 3 ] in
  Alcotest.(check int) "degree" 2 (C.degree c);
  Alcotest.(check int) "edges" 20 (D.edge_count c.graph);
  Alcotest.(check bool) "x -> x+1" true (D.mem_edge c.graph 4 5);
  Alcotest.(check bool) "x -> x+3" true (D.mem_edge c.graph 8 1);
  Alcotest.(check bool) "strongly connected" true (Scc.is_strongly_connected c.graph)

let test_circulant_negative_offset () =
  let c = C.circulant ~n:10 ~offsets:[ -1 ] in
  Alcotest.(check bool) "x -> x-1" true (D.mem_edge c.graph 0 9)

let test_identity_generator_rejected () =
  Alcotest.(check bool) "offset 0 rejected" true
    (try
       ignore (C.circulant ~n:5 ~offsets:[ 5 ]);
       false
     with Invalid_argument _ -> true)

let test_duplicate_generator_rejected () =
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (C.circulant ~n:7 ~offsets:[ 2; 9 ]);
       false
     with Invalid_argument _ -> true)

let test_hypercube () =
  let c = C.hypercube 4 in
  Alcotest.(check int) "n = 16" 16 (D.n c.graph);
  Alcotest.(check int) "degree 4" 4 (C.degree c);
  (* Vertex 0 is adjacent to the 4 unit vectors. *)
  let group = c.group in
  List.iteri
    (fun i _ ->
      let unit = A.of_coords group (List.init 4 (fun j -> if i = j then 1 else 0)) in
      Alcotest.(check bool) "unit edge" true (D.mem_edge c.graph 0 unit))
    (List.init 4 Fun.id);
  Alcotest.(check bool) "strongly connected" true (Scc.is_strongly_connected c.graph)

let test_torus () =
  let c = C.torus 3 4 in
  Alcotest.(check int) "n" 12 (D.n c.graph);
  Alcotest.(check int) "degree" 2 (C.degree c);
  Alcotest.(check bool) "strongly connected" true (Scc.is_strongly_connected c.graph)

let test_vertex_transitivity () =
  (* Cayley graphs are vertex-transitive: every out-neighborhood is the
     translate of the generator set. *)
  let c = C.circulant ~n:12 ~offsets:[ 2; 5; 7 ] in
  let g = c.group in
  List.iter
    (fun x ->
      List.iter
        (fun a ->
          Alcotest.(check bool) "edge by translation" true
            (D.mem_edge c.graph x (A.add g x a)))
        c.generators)
    (A.elements g)

let test_random_circulant () =
  let rng = SM.create 6 in
  let c = C.random_circulant rng ~n:20 ~k:4 in
  Alcotest.(check int) "degree" 4 (C.degree c);
  List.iter
    (fun a -> Alcotest.(check bool) "non-identity" true (a <> 0))
    c.generators

let suite =
  [
    Alcotest.test_case "cyclic arithmetic" `Quick test_cyclic_arithmetic;
    Alcotest.test_case "product coordinates" `Quick test_product_coords;
    Alcotest.test_case "coordinate reduction" `Quick test_of_coords_reduces;
    Alcotest.test_case "identity and order" `Quick test_identity_and_order;
    Alcotest.test_case "group axioms (sampled)" `Quick test_group_axioms_sampled;
    Alcotest.test_case "circulant structure" `Quick test_circulant_structure;
    Alcotest.test_case "negative offsets" `Quick test_circulant_negative_offset;
    Alcotest.test_case "identity generator rejected" `Quick test_identity_generator_rejected;
    Alcotest.test_case "duplicate generator rejected" `Quick test_duplicate_generator_rejected;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "torus" `Quick test_torus;
    Alcotest.test_case "vertex transitivity" `Quick test_vertex_transitivity;
    Alcotest.test_case "random circulant" `Quick test_random_circulant;
  ]
