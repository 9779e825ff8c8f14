module P = Bbc.Potential
module I = Bbc.Instance

let test_space_enumeration () =
  let inst = I.uniform ~n:3 ~k:1 in
  match P.enumerate_space inst with
  | Some space ->
      (* 3 strategies per node (2 links + empty) -> 27 profiles. *)
      Alcotest.(check int) "3^3 profiles" 27 (Array.length space.profiles);
      Array.iteri
        (fun i c -> Alcotest.(check int) "index roundtrip" i (space.index c))
        space.profiles
  | None -> Alcotest.fail "space should fit"

let test_space_abort () =
  let inst = I.uniform ~n:8 ~k:2 in
  Alcotest.(check bool) "too large" true
    (P.enumerate_space ~max_profiles:100 inst = None)

let test_sinks_are_equilibria () =
  let inst = I.uniform ~n:3 ~k:1 in
  match P.enumerate_space inst with
  | Some space ->
      let g = P.improvement_graph inst in
      Alcotest.(check bool) "sinks <-> NEs" true
        (P.sinks_are_equilibria inst space g)
  | None -> Alcotest.fail "space should fit"

let test_no_nash_core_fails_fip () =
  (* A game with no pure NE cannot have the FIP (every maximal
     improvement path would end in a NE). *)
  let core = Bbc.Gadget.core () in
  match P.has_finite_improvement_property core with
  | Some fip -> Alcotest.(check bool) "no ordinal potential" false fip
  | None -> Alcotest.fail "core space should fit"

let test_small_uniform_games_fip () =
  (* Small uniform games: measure (and pin down) whether the improvement
     dynamics can cycle.  (3,1) turns out to have the FIP. *)
  let inst = I.uniform ~n:3 ~k:1 in
  match P.has_finite_improvement_property inst with
  | Some fip -> Alcotest.(check bool) "(3,1) has FIP" true fip
  | None -> Alcotest.fail "space should fit"

let test_best_only_subgraph () =
  (* Best-response arcs are a subset of improvement arcs. *)
  let inst = I.uniform ~n:3 ~k:1 in
  match P.enumerate_space inst with
  | Some space ->
      let full = P.improvement_graph inst in
      let best = P.improvement_graph ~best_only:true inst in
      Bbc_graph.Digraph.iter_edges best (fun i j _ ->
          Alcotest.(check bool) "subset" true (Bbc_graph.Digraph.mem_edge full i j));
      (* Unstable profiles have at least one best-response arc. *)
      Array.iteri
        (fun i c ->
          if not (Bbc.Stability.is_stable inst c) then
            Alcotest.(check bool) "unstable -> has BR arc" true
              (Bbc_graph.Digraph.out_degree best i > 0))
        space.profiles
  | None -> Alcotest.fail "space should fit"

let suite =
  [
    Alcotest.test_case "space enumeration" `Quick test_space_enumeration;
    Alcotest.test_case "space abort" `Quick test_space_abort;
    Alcotest.test_case "sinks are equilibria" `Quick test_sinks_are_equilibria;
    Alcotest.test_case "no-NE core fails FIP" `Slow test_no_nash_core_fails_fip;
    Alcotest.test_case "(3,1) has FIP" `Quick test_small_uniform_games_fip;
    Alcotest.test_case "best-only subgraph" `Quick test_best_only_subgraph;
  ]
