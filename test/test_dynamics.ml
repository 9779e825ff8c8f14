module I = Bbc.Instance
module C = Bbc.Config
module D = Bbc.Dynamics
module Scc = Bbc_graph.Scc

let test_converges_from_empty_small () =
  let inst = I.uniform ~n:5 ~k:1 in
  match D.run ~scheduler:Round_robin ~max_rounds:100 inst (C.empty 5) with
  | Converged (c, stats) ->
      Alcotest.(check bool) "result is a NE" true (Bbc.Stability.is_stable inst c);
      Alcotest.(check bool) "made progress" true (stats.deviations > 0)
  | o -> Alcotest.fail (Format.asprintf "expected convergence, got %a" D.pp_outcome o)

let test_stable_start_converges_immediately () =
  let inst = I.uniform ~n:5 ~k:1 in
  let ring = C.of_lists 5 (Array.init 5 (fun v -> [ (v + 1) mod 5 ])) in
  match D.run ~scheduler:Round_robin ~max_rounds:10 inst ring with
  | Converged (c, stats) ->
      Alcotest.(check bool) "unchanged" true (C.equal c ring);
      Alcotest.(check int) "one silent round" 1 stats.rounds;
      Alcotest.(check int) "no deviations" 0 stats.deviations
  | o -> Alcotest.fail (Format.asprintf "expected convergence, got %a" D.pp_outcome o)

let test_figure4_loop_cycles () =
  let inst, config = Bbc.Constructions.best_response_loop () in
  match D.run ~scheduler:Round_robin ~max_rounds:50 inst config with
  | Cycled { period; _ } -> Alcotest.(check int) "period 2 rounds" 2 period
  | o -> Alcotest.fail (Format.asprintf "expected a cycle, got %a" D.pp_outcome o)

let test_figure4_loop_deviation_count () =
  let inst, config = Bbc.Constructions.best_response_loop () in
  (* Count deviations over the first full period: the paper's loop has 6
     (three nodes moving twice). *)
  let moves = ref [] in
  (match
     D.run
       ~on_step:(fun s -> if s.moved then moves := s.node :: !moves)
       ~scheduler:Round_robin ~max_rounds:50 inst config
   with
  | Cycled _ -> ()
  | o -> Alcotest.fail (Format.asprintf "expected a cycle, got %a" D.pp_outcome o));
  Alcotest.(check (list int)) "six deviations by three nodes"
    [ 0; 1; 3; 0; 1; 3 ] (List.rev !moves)

let test_max_cost_first_converges () =
  let inst = I.uniform ~n:6 ~k:2 in
  let rng = Bbc_prng.Splitmix.create 100 in
  let g = Bbc_graph.Generators.random_k_out rng ~n:6 ~k:2 in
  match D.run ~scheduler:Max_cost_first ~max_rounds:2000 inst (C.of_graph g) with
  | Converged (c, _) ->
      Alcotest.(check bool) "NE" true (Bbc.Stability.is_stable inst c)
  | Cycled _ -> () (* the paper reports such walks may fail to converge *)
  | Exhausted _ -> Alcotest.fail "walk neither converged nor cycled in 2000 steps"

let test_random_order_runs () =
  let inst = I.uniform ~n:6 ~k:1 in
  match D.run ~scheduler:(Random_order 7) ~max_rounds:200 inst (C.empty 6) with
  | Converged (c, _) -> Alcotest.(check bool) "NE" true (Bbc.Stability.is_stable inst c)
  | o -> Alcotest.fail (Format.asprintf "expected convergence, got %a" D.pp_outcome o)

let strongly_connected inst c = Scc.is_strongly_connected (C.to_graph inst c)

let test_strong_connectivity_theorem6 () =
  (* Theorem 6: round-robin reaches strong connectivity within n^2 steps. *)
  let rng = Bbc_prng.Splitmix.create 200 in
  List.iter
    (fun n ->
      for _ = 1 to 3 do
        let inst = I.uniform ~n ~k:1 in
        let g = Bbc_graph.Generators.random_k_out rng ~n ~k:1 in
        match
          D.first_strong_connectivity ~scheduler:Round_robin ~max_rounds:(2 * n)
            inst (C.of_graph g)
        with
        | Some (stats, _) ->
            Alcotest.(check bool) "within n^2 steps" true (stats.steps <= n * n)
        | None -> Alcotest.fail "never became strongly connected"
      done)
    [ 6; 10; 14 ]

let test_connectivity_persists () =
  (* Lemma 9 consequence: once strongly connected, best-response steps
     keep it strongly connected. *)
  let inst = I.uniform ~n:8 ~k:1 in
  let rng = Bbc_prng.Splitmix.create 300 in
  let g = Bbc_graph.Generators.random_k_out rng ~n:8 ~k:1 in
  let connected_seen = ref false in
  let current = ref (C.of_graph g) in
  let check () =
    let sc = strongly_connected inst !current in
    if !connected_seen then
      Alcotest.(check bool) "connectivity persists" true sc
    else if sc then connected_seen := true
  in
  check ();
  ignore
    (D.run
       ~on_step:(fun s ->
         if s.moved then begin
           current := C.with_strategy !current s.node s.strategy;
           check ()
         end)
       ~scheduler:Round_robin ~max_rounds:64 inst !current)

(* The adversarial schedule of the paper's Omega(n^2) argument: start at
   the tail of the path, proceed along the path, then around the ring. *)
let adversarial_order ~ring ~path =
  Array.of_list (List.init path (fun j -> ring + j) @ List.init ring Fun.id)

let test_ring_with_path_slow_convergence () =
  let ring = 8 and path = 4 in
  let inst, config = Bbc.Constructions.ring_with_path ~ring ~path in
  match
    D.first_strong_connectivity
      ~scheduler:(Fixed_order (adversarial_order ~ring ~path))
      ~max_rounds:200 inst config
  with
  | Some (stats, _) ->
      Alcotest.(check bool) "needs many rounds" true (stats.rounds >= 2);
      Alcotest.(check bool) "within n^2" true (stats.steps <= 12 * 12)
  | None -> Alcotest.fail "never strongly connected"

let test_ring_with_path_quadratic_growth () =
  (* Under the adversarial order, steps to strong connectivity grow
     quadratically: roughly path * n activations. *)
  let measure ring path =
    let inst, config = Bbc.Constructions.ring_with_path ~ring ~path in
    match
      D.first_strong_connectivity
        ~scheduler:(Fixed_order (adversarial_order ~ring ~path))
        ~max_rounds:500 inst config
    with
    | Some (stats, _) -> stats.steps
    | None -> Alcotest.fail "never strongly connected"
  in
  let s1 = measure 8 4 in
  let s2 = measure 16 8 in
  Alcotest.(check bool) "superlinear growth" true (s2 >= 3 * s1)

let test_stats_accounting () =
  let inst = I.uniform ~n:4 ~k:1 in
  match D.run ~scheduler:Round_robin ~max_rounds:50 inst (C.empty 4) with
  | Converged (_, stats) ->
      Alcotest.(check int) "steps = rounds * n" (stats.rounds * 4) stats.steps;
      Alcotest.(check bool) "deviations <= steps" true (stats.deviations <= stats.steps)
  | o -> Alcotest.fail (Format.asprintf "expected convergence, got %a" D.pp_outcome o)

let test_final_config_accessor () =
  let inst = I.uniform ~n:4 ~k:1 in
  let o = D.run ~scheduler:Round_robin ~max_rounds:50 inst (C.empty 4) in
  let c = D.final_config o in
  Alcotest.(check int) "right size" 4 (C.n c)

let suite =
  [
    Alcotest.test_case "converges from empty" `Quick test_converges_from_empty_small;
    Alcotest.test_case "stable start: immediate convergence" `Quick test_stable_start_converges_immediately;
    Alcotest.test_case "figure-4 loop cycles" `Quick test_figure4_loop_cycles;
    Alcotest.test_case "figure-4 deviation pattern" `Quick test_figure4_loop_deviation_count;
    Alcotest.test_case "max-cost-first scheduler" `Quick test_max_cost_first_converges;
    Alcotest.test_case "random-order scheduler" `Quick test_random_order_runs;
    Alcotest.test_case "theorem 6: n^2 steps" `Quick test_strong_connectivity_theorem6;
    Alcotest.test_case "connectivity persists (lemma 9)" `Quick test_connectivity_persists;
    Alcotest.test_case "ring+path slow convergence" `Quick test_ring_with_path_slow_convergence;
    Alcotest.test_case "ring+path quadratic growth" `Quick test_ring_with_path_quadratic_growth;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "final_config accessor" `Quick test_final_config_accessor;
  ]

let test_first_improvement_policy () =
  (* First-improvement walks still converge to genuine equilibria (every
     move is strictly improving, convergence means a silent full round). *)
  let inst = I.uniform ~n:7 ~k:1 in
  let rng = Bbc_prng.Splitmix.create 500 in
  for _ = 1 to 5 do
    let g = Bbc_graph.Generators.random_k_out rng ~n:7 ~k:1 in
    match
      D.run ~policy:D.First_improvement ~scheduler:Round_robin ~max_rounds:200
        inst (C.of_graph g)
    with
    | Converged (c, _) ->
        Alcotest.(check bool) "NE" true (Bbc.Stability.is_stable inst c)
    | Cycled _ -> ()
    | Exhausted _ -> Alcotest.fail "neither converged nor cycled"
  done

let test_first_improvement_moves_are_improving () =
  let inst = I.uniform ~n:6 ~k:2 in
  let rng = Bbc_prng.Splitmix.create 501 in
  let c0 = C.of_graph (Bbc_graph.Generators.random_k_out rng ~n:6 ~k:2) in
  let current = ref c0 in
  ignore
    (D.run ~policy:D.First_improvement
       ~on_step:(fun s ->
         if s.moved then begin
           let before = Bbc.Eval.node_cost inst !current s.node in
           current := C.with_strategy !current s.node s.strategy;
           let after = Bbc.Eval.node_cost inst !current s.node in
           Alcotest.(check bool) "strictly improving" true (after < before)
         end)
       ~scheduler:Round_robin ~max_rounds:50 inst c0)

let suite =
  suite
  @ [
      Alcotest.test_case "first-improvement policy" `Quick test_first_improvement_policy;
      Alcotest.test_case "first-improvement moves improve" `Quick
        test_first_improvement_moves_are_improving;
    ]

(* Round-robin walks on uniform k = 1 functional inputs take the closed
   form at every activation: the step stream must be the reference
   walk's, which picks moves from the reference DFS and costs from
   Eval.  Theorem 6: these walks converge. *)
let reference_walk ~objective ~policy ~max_rounds inst c0 =
  let n = I.n inst in
  let steps = ref [] and index = ref 0 in
  let rec round r c =
    if r >= max_rounds then (c, r)
    else begin
      let c = ref c and moved_any = ref false in
      for node = 0 to n - 1 do
        let current = Bbc.Eval.node_cost ~objective inst !c node in
        let pick =
          match policy with
          | D.First_improvement -> K1_fixtures.improving ~objective inst !c node
          | _ ->
              let s, cost = K1_fixtures.exact ~objective inst !c node in
              if cost < current then Some (s, cost) else None
        in
        let moved = Option.is_some pick in
        Option.iter (fun (s, _) -> c := C.with_strategy !c node s) pick;
        if moved then moved_any := true;
        steps :=
          ( !index,
            r,
            node,
            moved,
            C.targets !c node,
            Bbc.Eval.node_cost ~objective inst !c node )
          :: !steps;
        incr index
      done;
      if !moved_any then round (r + 1) !c else (!c, r + 1)
    end
  in
  let final, rounds = round 0 c0 in
  (List.rev !steps, final, rounds)

let test_k1_traces () =
  List.iter
    (fun (name, inst, c0) ->
      List.iter
        (fun objective ->
          List.iter
            (fun policy ->
              let msg = Printf.sprintf "%s %s" name (Bbc.Objective.to_string objective) in
              let steps = ref [] in
              let outcome =
                D.run ~objective ~policy
                  ~on_step:(fun (s : D.step) ->
                    steps := (s.index, s.round, s.node, s.moved, s.strategy, s.cost_after) :: !steps)
                  ~scheduler:Round_robin ~max_rounds:40 inst c0
              in
              let ref_steps, ref_final, ref_rounds =
                reference_walk ~objective ~policy ~max_rounds:40 inst c0
              in
              (match outcome with
              | D.Converged (c, st) ->
                  Alcotest.(check bool) (msg ^ ": final profile") true (C.equal ref_final c);
                  Alcotest.(check int) (msg ^ ": rounds") ref_rounds st.rounds
              | o -> Alcotest.failf "%s: expected convergence, got %a" msg D.pp_outcome o);
              Alcotest.(check bool) (msg ^ ": step stream") true (List.rev !steps = ref_steps))
            [ D.Exact_best_response; D.First_improvement ])
        K1_fixtures.objectives)
    (K1_fixtures.inputs ())

let suite = suite @ [ Alcotest.test_case "k=1 traces = reference walk" `Quick test_k1_traces ]

(* Max_cost_first under a sampled policy: the scan's max-cost unstable
   node may draw a sample without its improvement and stay, so the
   profile repeats while the generator moves on.  That repeat is not a
   cycle; the walk must go on until the exact scan finds no unstable
   node or the step budget runs out. *)
let test_max_cost_sampled_no_false_cycle () =
  let params = { Bbc.Catalog.default_params with n = 30; k = 2; seed = 3 } in
  let inst, c0 = Result.get_ok (Bbc.Catalog.build "random" params) in
  List.iter
    (fun (objective, expected) ->
      let outcome =
        D.run ~objective ~policy:(Sampled_best_response { sample = 4; seed = 3 })
          ~scheduler:Max_cost_first ~max_rounds:200 inst c0
      in
      Alcotest.(check string) (Bbc.Objective.to_string objective) expected
        (Format.asprintf "%a" D.pp_outcome outcome))
    [
      (Bbc.Objective.Sum, "exhausted (rounds=200 steps=200 deviations=95)");
      (Bbc.Objective.Max, "exhausted (rounds=200 steps=200 deviations=34)");
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "max-cost sampled: no false cycle" `Quick
        test_max_cost_sampled_no_false_cycle;
    ]

(* A [Fixed_order] that repeats or skips a node, or names one outside
   the game, is rejected before the walk: a repeated node once let a
   walk report [Converged] on an unstable profile. *)
let test_fixed_order_must_be_permutation () =
  let inst = I.uniform ~n:6 ~k:1 in
  List.iter
    (fun order ->
      Alcotest.check_raises "not a permutation"
        (Invalid_argument "Dynamics: Fixed_order must be a permutation of all nodes")
        (fun () -> ignore (D.run ~scheduler:(Fixed_order order) ~max_rounds:20 inst (C.empty 6))))
    [ Array.make 6 0; [| 0; 1; 2; 3; 4; 99 |]; [| 0; 1; 2; 3; 4; -1 |]; [| 0; 1; 2 |] ]

let suite =
  suite
  @ [
      Alcotest.test_case "fixed order is a permutation" `Quick
        test_fixed_order_must_be_permutation;
    ]
