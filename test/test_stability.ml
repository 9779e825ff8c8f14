module I = Bbc.Instance
module C = Bbc.Config
module S = Bbc.Stability

let ring n = C.of_lists n (Array.init n (fun v -> [ (v + 1) mod n ]))

let test_ring_k1_stable () =
  (* The directed cycle is the canonical stable (n,1)-graph. *)
  let inst = I.uniform ~n:6 ~k:1 in
  Alcotest.(check bool) "stable" true (S.is_stable inst (ring 6));
  Alcotest.(check bool) "no deviation" true (S.find_deviation inst (ring 6) = None)

let test_empty_unstable () =
  let inst = I.uniform ~n:5 ~k:1 in
  let c = C.empty 5 in
  Alcotest.(check bool) "unstable" false (S.is_stable inst c);
  match S.find_deviation inst c with
  | Some d ->
      Alcotest.(check int) "first node" 0 d.node;
      Alcotest.(check bool) "improves" true (d.better.cost < d.current_cost)
  | None -> Alcotest.fail "expected a deviation"

let test_infeasible_is_unstable () =
  let inst = I.uniform ~n:4 ~k:1 in
  let c = C.of_lists 4 [| [ 1; 2 ]; []; []; [] |] in
  (* Over budget: is_stable must reject even if no improving deviation
     search would run. *)
  Alcotest.(check bool) "infeasible not stable" false (S.is_stable inst c)

let test_complete_stable () =
  let inst = I.uniform ~n:5 ~k:4 in
  let c = C.of_lists 5 (Array.init 5 (fun v -> List.filter (( <> ) v) [ 0; 1; 2; 3; 4 ])) in
  Alcotest.(check bool) "complete graph stable" true (S.is_stable inst c)

let test_deviation_strictness () =
  (* A profile where a node has an equal-cost alternative but nothing
     strictly better must count as stable. *)
  let w = [| [| 0; 1; 1 |]; [| 0; 0; 0 |]; [| 0; 0; 0 |] |] in
  let inst = I.of_weights ~k:1 w in
  (* Node 0 links 1 (cost 1 + M); linking 2 also costs 1 + M: no strict
     improvement.  1 and 2 have zero weights: stable. *)
  let c = C.of_lists 3 [| [ 1 ]; []; [] |] in
  Alcotest.(check bool) "ties do not destabilize" true (S.is_stable inst c)

let test_max_objective_stability () =
  let inst = I.uniform ~n:5 ~k:1 in
  Alcotest.(check bool) "ring stable under max" true
    (S.is_stable ~objective:Max inst (ring 5))

(* All nodes link node 0, node 0 links node 1: [nodes_stable]'s verdict
   on each single node must be exactly "the reference DFS finds no
   improving deviation". *)
let test_star_unstable_k1 () =
  let inst = I.uniform ~n:5 ~k:1 in
  let c = C.of_lists 5 [| [ 1 ]; [ 0 ]; [ 0 ]; [ 0 ]; [ 0 ] |] in
  List.iter
    (fun u ->
      Alcotest.(check bool) (Printf.sprintf "node %d" u)
        (K1_fixtures.improving inst c u = None)
        (S.nodes_stable inst c [ u ]))
    [ 0; 1; 2; 3; 4 ]

let suite =
  [
    Alcotest.test_case "ring is stable (k=1)" `Quick test_ring_k1_stable;
    Alcotest.test_case "empty profile unstable" `Quick test_empty_unstable;
    Alcotest.test_case "infeasible profile not stable" `Quick test_infeasible_is_unstable;
    Alcotest.test_case "complete graph stable" `Quick test_complete_stable;
    Alcotest.test_case "strictness of deviations" `Quick test_deviation_strictness;
    Alcotest.test_case "max-objective stability" `Quick test_max_objective_stability;
    Alcotest.test_case "unstable set is exact" `Quick test_star_unstable_k1;
  ]

let test_parallel_agrees_with_sequential () =
  let rng = Bbc_prng.Splitmix.create 900 in
  for _ = 1 to 10 do
    let n = 12 in
    let inst = I.uniform ~n ~k:2 in
    let c = C.of_graph (Bbc_graph.Generators.random_k_out rng ~n ~k:2) in
    Alcotest.(check bool) "parallel = sequential" (S.is_stable inst c)
      (S.is_stable ~jobs:3 inst c)
  done;
  (* A known stable graph, with more domains than useful. *)
  let inst, config = Bbc.Willows.build { k = 2; h = 2; l = 1 } in
  Alcotest.(check bool) "stable willows" true
    (S.is_stable ~jobs:4 inst config);
  Alcotest.(check bool) "degenerate domain count" true
    (S.is_stable ~jobs:1 inst config)

let suite =
  suite
  @ [
      Alcotest.test_case "parallel stability" `Quick test_parallel_agrees_with_sequential;
    ]

(* Uniform k = 1 functional inputs take the closed form: verdicts and
   deviations must match the reference DFS's at any job count. *)
let test_k1_closed_form () =
  List.iter
    (fun (name, inst, c) ->
      List.iter
        (fun objective ->
          let msg = Printf.sprintf "%s %s" name (Bbc.Objective.to_string objective) in
          let n = I.n inst in
          let current u = Bbc.Eval.node_cost ~objective inst c u in
          let improving u = K1_fixtures.improving ~objective inst c u in
          let unstable = List.filter (fun u -> improving u <> None) (List.init n Fun.id) in
          let deviation =
            match unstable with
            | [] -> None
            | u :: _ -> Some (u, current u, Option.get (improving u))
          in
          List.iter
            (fun jobs ->
              let msg = Printf.sprintf "%s jobs %d" msg jobs in
              Alcotest.(check bool) (msg ^ ": is_stable") (unstable = [])
                (S.is_stable ~objective ~jobs inst c);
              Alcotest.(check (option (triple int int (pair (list int) int))))
                (msg ^ ": find_deviation") deviation
                (Option.map
                   (fun (d : S.deviation) ->
                     (d.node, d.current_cost, (d.better.strategy, d.better.cost)))
                   (S.find_deviation ~objective ~jobs inst c)))
            [ 1; 4 ])
        K1_fixtures.objectives)
    (K1_fixtures.inputs ())

let suite = suite @ [ Alcotest.test_case "k=1 closed form = reference" `Quick test_k1_closed_form ]

(* [is_stable] and [find_deviation] share one first-unstable scan.  On
   closed-form (uniform k = 1 functional) and per-node inputs, feasible
   and overspending, at jobs 1 and 2: [is_stable] is feasibility plus no
   deviation, and the deviation found is the lowest node the reference
   DFS finds improvable, at its exact current cost, via a strategy that
   really costs what it claims. *)
let test_shared_scan () =
  let rng = Bbc_prng.Splitmix.create 33 in
  let per_node =
    List.concat_map
      (fun (n, k) ->
        let inst = I.uniform ~n ~k in
        List.init 4 (fun i ->
            let c = C.of_graph (Bbc_graph.Generators.random_k_out rng ~n ~k) in
            (* Every other profile: node 0 buys one link past its budget. *)
            let c =
              if i mod 2 = 0 then c
              else
                let unused v = not (List.mem v (C.targets c 0)) in
                let extra = List.find unused (List.init (n - 1) succ) in
                C.with_strategy c 0 (extra :: C.targets c 0)
            in
            (Printf.sprintf "n=%d k=%d #%d" n k i, inst, c)))
      [ (5, 1); (6, 2); (7, 2); (8, 3) ]
  in
  List.iter
    (fun (name, inst, c) ->
      let n = I.n inst in
      let lowest =
        List.find_opt (fun u -> K1_fixtures.improving inst c u <> None) (List.init n Fun.id)
      in
      List.iter
        (fun jobs ->
          let msg = Printf.sprintf "%s jobs %d" name jobs in
          let d = S.find_deviation ~jobs inst c in
          Alcotest.(check bool) (msg ^ ": is_stable") (C.feasible inst c && d = None)
            (S.is_stable ~jobs inst c);
          Alcotest.(check (option int)) (msg ^ ": lowest node") lowest
            (Option.map (fun (d : S.deviation) -> d.node) d);
          Option.iter
            (fun (d : S.deviation) ->
              Alcotest.(check int) (msg ^ ": current cost")
                (Bbc.Eval.node_cost inst c d.node) d.current_cost;
              Alcotest.(check int) (msg ^ ": claimed cost")
                (Bbc.Eval.node_cost inst (C.with_strategy c d.node d.better.strategy) d.node)
                d.better.cost;
              Alcotest.(check bool) (msg ^ ": improves") true (d.better.cost < d.current_cost))
            d)
        [ 1; 2 ])
    (K1_fixtures.inputs () @ per_node)

let suite = suite @ [ Alcotest.test_case "shared scan = reference" `Quick test_shared_scan ]
