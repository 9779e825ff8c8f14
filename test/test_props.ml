(* Property-based tests (qcheck, registered through QCheck_alcotest).

   Random structures come from the bbc_fuzz structured generators: each
   qcheck value is a whole shrink tree, and the shrink function walks
   its children, so a failure shrinks to a minimal instance/graph
   instead of an opaque seed.  (A couple of properties over external
   domains — the SAT solver — keep the historical seed arbitrary.) *)

module Q = QCheck
module SM = Bbc_prng.Splitmix
module D = Bbc_graph.Digraph
module R = Bbc_fuzz.Reference
module G = Bbc_graph.Generators
module Scc = Bbc_graph.Scc
module I = Bbc.Instance
module C = Bbc.Config
module E = Bbc.Eval
module F = Bbc_fuzz.Gen
module DG = Bbc_fuzz.Domain_gen

(* Bridge: a bbc_fuzz generator as a qcheck arbitrary over shrink
   trees.  qcheck draws a seed, the tree is regenerated deterministically
   from it, and qcheck's shrinker explores the tree's children. *)
let fuzz_arb ?print g =
  let print = Option.map (fun p t -> p (F.root t)) print in
  Q.make ?print
    ~shrink:(fun t yield -> Seq.iter yield (F.children t))
    (Q.Gen.map (fun seed -> F.generate ~seed g) (Q.Gen.int_bound 1_000_000))

let on_root prop t = prop (F.root t)

let print_ic (inst, cfg) =
  Bbc.Codec.instance_to_string inst ^ Bbc.Codec.config_to_string cfg

let print_graph g =
  Printf.sprintf "n=%d edges=[%s]" (D.n g)
    (String.concat ";"
       (List.map (fun (u, v, _) -> Printf.sprintf "%d->%d" u v) (D.edges g)))

let seed_arb = Q.int_bound 1_000_000

(* ---------------------------------------------------------------- *)
(* Graph-layer properties.                                            *)

let graph_arb = fuzz_arb ~print:print_graph (DG.graph ~max_n:15 ())

let graph_src_arb =
  let open F in
  let gen =
    let* g = DG.graph ~max_n:25 () in
    let+ src = int_bound (D.n g - 1) in
    (g, src)
  in
  fuzz_arb ~print:(fun (g, src) -> Printf.sprintf "src=%d %s" src (print_graph g)) gen

let prop_bfs_equals_dijkstra =
  Q.Test.make ~count:100 ~name:"bfs = dijkstra on unit graphs" graph_src_arb
    (on_root (fun (g, src) -> R.bfs g src = R.dijkstra g src))

let prop_triangle_inequality =
  Q.Test.make ~count:60 ~name:"shortest paths satisfy the triangle inequality"
    graph_arb
    (on_root (fun g ->
         let n = D.n g in
         let dist = Array.init n (fun v -> R.shortest g v) in
         let ok = ref true in
         for u = 0 to n - 1 do
           for v = 0 to n - 1 do
             for w = 0 to n - 1 do
               if
                 dist.(u).(v) <> Bbc_graph.Csr.unreachable
                 && dist.(v).(w) <> Bbc_graph.Csr.unreachable
                 && (dist.(u).(w) = Bbc_graph.Csr.unreachable
                    || dist.(u).(w) > dist.(u).(v) + dist.(v).(w))
               then ok := false
             done
           done
         done;
         !ok))

let mutually_reachable g u v =
  (Bbc_graph.Traversal.reachable_set g u).(v)
  && (Bbc_graph.Traversal.reachable_set g v).(u)

let prop_scc_is_mutual_reachability =
  Q.Test.make ~count:40 ~name:"same SCC <-> mutually reachable" graph_arb
    (on_root (fun g ->
         let n = D.n g in
         let scc = Scc.compute g in
         let ok = ref true in
         for u = 0 to n - 1 do
           for v = 0 to n - 1 do
             let same = scc.component.(u) = scc.component.(v) in
             if same <> mutually_reachable g u v then ok := false
           done
         done;
         !ok))

let prop_betweenness_nonnegative_bounded =
  Q.Test.make ~count:30 ~name:"betweenness in [0, (n-1)(n-2)]" graph_arb
    (on_root (fun g ->
         let n = D.n g in
         let b = Bbc_graph.Centrality.betweenness g in
         Array.for_all
           (fun x -> x >= 0.0 && x <= float_of_int ((n - 1) * (n - 2)))
           b))

(* ---------------------------------------------------------------- *)
(* Game-layer properties over generated (instance, config) pairs.     *)

let ic_arb = fuzz_arb ~print:print_ic (DG.instance_config ())

let icu_arb =
  let open F in
  let gen =
    let* inst, cfg = DG.instance_config () in
    let+ u = DG.node_of inst in
    (inst, cfg, u)
  in
  fuzz_arb
    ~print:(fun (inst, cfg, u) -> Printf.sprintf "u=%d %s" u (print_ic (inst, cfg)))
    gen

let prop_config_graph_roundtrip =
  Q.Test.make ~count:80 ~name:"config -> graph -> config roundtrip" ic_arb
    (on_root (fun (inst, cfg) -> C.equal cfg (C.of_graph (C.to_graph inst cfg))))

let prop_adding_link_never_hurts_owner =
  Q.Test.make ~count:60 ~name:"buying an extra link never raises own cost"
    icu_arb
    (on_root (fun (inst, cfg, u) ->
         let n = I.n inst in
         let current = C.targets cfg u in
         let extra =
           List.filter
             (fun v -> v <> u && not (List.mem v current))
             (List.init n Fun.id)
         in
         match extra with
         | [] -> true
         | v :: _ ->
             let c' = C.with_strategy cfg u (v :: current) in
             E.node_cost inst c' u <= E.node_cost inst cfg u))

let prop_best_response_is_lower_bound =
  let open F in
  let gen =
    let* inst, cfg = DG.instance_config () in
    let* u = DG.node_of inst in
    let+ trial = DG.strategy_for inst u in
    (inst, cfg, u, trial)
  in
  Q.Test.make ~count:60 ~name:"exact best response <= any strategy's cost"
    (fuzz_arb ~print:(fun (inst, cfg, u, _) ->
         Printf.sprintf "u=%d %s" u (print_ic (inst, cfg)))
       gen)
    (on_root (fun (inst, cfg, u, trial) ->
         let best = (Bbc.Best_response.exact inst cfg u).cost in
         best <= E.node_cost inst (C.with_strategy cfg u trial) u
         && best <= E.node_cost inst cfg u))

(* Uniform k = 1 games: the regime of the original reach argument (the
   disconnection penalty dominates any finite-distance saving). *)
let uniform1_arb =
  let open F in
  let gen =
    let* n = int_range 2 10 in
    let inst = I.uniform ~n ~k:1 in
    let* cfg = DG.config_for inst in
    let+ u = int_bound (n - 1) in
    (inst, cfg, u)
  in
  fuzz_arb
    ~print:(fun (inst, cfg, u) -> Printf.sprintf "u=%d %s" u (print_ic (inst, cfg)))
    gen

let prop_mover_reach_never_decreases =
  Q.Test.make ~count:50 ~name:"a best-response step never lowers the mover's reach"
    uniform1_arb
    (on_root (fun (inst, cfg, u) ->
         let before = Bbc_graph.Traversal.reach (C.to_graph inst cfg) u in
         match Bbc.Best_response.improving inst cfg u with
         | None -> true
         | Some _ ->
             let best = Bbc.Best_response.exact inst cfg u in
             let c' = C.with_strategy cfg u best.strategy in
             Bbc_graph.Traversal.reach (C.to_graph inst c') u >= before))

let prop_flow_cost_equals_shortest_path =
  let open F in
  let gen =
    let* n = int_range 4 10 in
    let* k = int_range 1 3 in
    let inst = I.uniform ~n ~k:(min k (n - 1)) in
    let* cfg = DG.config_for inst in
    let* u = int_bound (n - 1) in
    let+ v = int_bound (n - 1) in
    (inst, cfg, u, v)
  in
  Q.Test.make ~count:40
    ~name:"unit-capacity min-cost flow = shortest path (with penalty)"
    (fuzz_arb ~print:(fun (inst, cfg, _, _) -> print_ic (inst, cfg)) gen)
    (on_root (fun (inst, cfg, u, v) ->
         if u = v then true
         else begin
           let p = Bbc.Fractional.integral_profile inst cfg in
           let g = C.to_graph inst cfg in
           let d = (R.shortest g u).(v) in
           let expected =
             if d = Bbc_graph.Csr.unreachable then float_of_int (I.penalty inst)
             else float_of_int (min d (I.penalty inst))
           in
           Float.abs (Bbc.Fractional.pair_cost inst p u v -. expected) < 1e-6
         end))

let prop_willows_budgets_and_connectivity =
  Q.Test.make ~count:20 ~name:"willows: full budgets, strong connectivity"
    (Q.triple (Q.int_range 2 3) (Q.int_range 1 3) (Q.int_range 0 2))
    (fun (k, h, l) ->
      let p = Bbc.Willows.{ k; h; l } in
      if Bbc.Willows.size p > 130 then true
      else begin
        let inst, config = Bbc.Willows.build p in
        C.feasible inst config
        && Scc.is_strongly_connected (C.to_graph inst config)
        && Array.for_all
             (fun v -> C.strategy_size config v = k)
             (Array.init (Bbc.Willows.size p) Fun.id)
      end)

let prop_solver_witness_satisfies =
  Q.Test.make ~count:60 ~name:"DPLL witnesses satisfy their formulas" seed_arb
    (fun seed ->
      let rng = SM.create seed in
      let f = Bbc_sat.Gen.random_3sat rng ~num_vars:7 ~num_clauses:20 in
      match Bbc_sat.Solver.solve f with
      | Sat w -> Bbc_sat.Cnf.eval f w
      | Unsat -> Sat_reference.count_models f = 0)

let prop_group_axioms =
  let open F in
  let gen =
    let* m0 = int_range 2 5 in
    let* rest = list ~max_len:2 (int_range 2 5) in
    let module A = Bbc_group.Abelian in
    let g = A.create (m0 :: rest) in
    let* x = int_bound (A.order g - 1) in
    let+ y = int_bound (A.order g - 1) in
    (m0 :: rest, x, y)
  in
  Q.Test.make ~count:80 ~name:"abelian group axioms" (fuzz_arb gen)
    (on_root (fun (moduli, x, y) ->
         let module A = Bbc_group.Abelian in
         let g = A.create moduli in
         A.add g x y = A.add g y x
         && A.add g x (A.neg g x) = A.identity g
         && A.add g x (A.identity g) = x))

let prop_social_cost_decomposes =
  Q.Test.make ~count:40 ~name:"social cost = sum of node costs" ic_arb
    (on_root (fun (inst, cfg) ->
         E.social_cost inst cfg = Array.fold_left ( + ) 0 (E.all_costs inst cfg)))

let prop_max_cost_le_sum_cost =
  Q.Test.make ~count:40 ~name:"max objective <= sum objective per node" ic_arb
    (on_root (fun (inst, cfg) ->
         let ok = ref true in
         for u = 0 to I.n inst - 1 do
           if E.node_cost ~objective:Max inst cfg u > E.node_cost inst cfg u then
             ok := false
         done;
         !ok))

let prop_dynamics_deviations_strictly_improve =
  Q.Test.make ~count:25 ~name:"every dynamics move strictly improves the mover"
    (fuzz_arb ~print:print_ic (DG.instance_config ~max_n:8 ()))
    (on_root (fun (inst, c0) ->
         let ok = ref true in
         let current = ref c0 in
         ignore
           (Bbc.Dynamics.run
              ~on_step:(fun s ->
                if s.moved then begin
                  let before = E.node_cost inst !current s.node in
                  current := C.with_strategy !current s.node s.strategy;
                  let after = E.node_cost inst !current s.node in
                  if after >= before then ok := false
                end)
              ~scheduler:Round_robin ~max_rounds:30 inst c0);
         !ok))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bfs_equals_dijkstra;
      prop_triangle_inequality;
      prop_scc_is_mutual_reachability;
      prop_config_graph_roundtrip;
      prop_adding_link_never_hurts_owner;
      prop_best_response_is_lower_bound;
      prop_mover_reach_never_decreases;
      prop_flow_cost_equals_shortest_path;
      prop_willows_budgets_and_connectivity;
      prop_solver_witness_satisfies;
      prop_group_axioms;
      prop_social_cost_decomposes;
      prop_max_cost_le_sum_cost;
      prop_dynamics_deviations_strictly_improve;
    ]

let prop_codec_roundtrip =
  Q.Test.make ~count:40 ~name:"codec: instance and config roundtrip" ic_arb
    (on_root (fun (inst, cfg) ->
         let n = I.n inst in
         let nodes = List.init n Fun.id in
         let inst_ok =
           match
             Bbc.Codec.instance_of_string (Bbc.Codec.instance_to_string inst)
           with
           | Ok inst' ->
               I.penalty inst = I.penalty inst'
               && List.for_all
                    (fun u ->
                      I.budget inst u = I.budget inst' u
                      && List.for_all
                           (fun v ->
                             u = v
                             || I.weight inst u v = I.weight inst' u v
                                && I.cost inst u v = I.cost inst' u v
                                && I.length inst u v = I.length inst' u v)
                           nodes)
                    nodes
           | Error _ -> false
         in
         let config_ok =
           match Bbc.Codec.config_of_string (Bbc.Codec.config_to_string cfg) with
           | Ok c' -> C.equal cfg c'
           | Error _ -> false
         in
         inst_ok && config_ok))

let prop_budget_instances_feasible_dynamics =
  Q.Test.make ~count:20 ~name:"dynamics keeps profiles feasible"
    (fuzz_arb
       ~print:(fun inst -> Bbc.Codec.instance_to_string inst)
       (DG.instance ~max_n:8 ()))
    (on_root (fun inst ->
         let outcome =
           Bbc.Dynamics.run ~scheduler:Bbc.Dynamics.Round_robin ~max_rounds:40
             inst
             (C.empty (I.n inst))
         in
         C.feasible inst (Bbc.Dynamics.final_config outcome)))

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_codec_roundtrip;
        prop_budget_instances_feasible_dynamics;
        prop_betweenness_nonnegative_bounded;
      ]
