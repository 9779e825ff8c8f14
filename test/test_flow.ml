module N = Bbc_flow.Network
module MC = Bbc_flow.Mincost
module MF = Maxflow

let feps = Alcotest.float 1e-6

let test_single_arc () =
  let net = N.create 2 in
  ignore (N.add_arc net ~src:0 ~dst:1 ~capacity:1.0 ~cost:3.0);
  let r = MC.solve net ~source:0 ~sink:1 ~amount:1.0 in
  Alcotest.check feps "sent" 1.0 r.sent;
  Alcotest.check feps "cost" 3.0 r.cost

let test_capacity_limits () =
  let net = N.create 2 in
  ignore (N.add_arc net ~src:0 ~dst:1 ~capacity:0.4 ~cost:1.0);
  let r = MC.solve net ~source:0 ~sink:1 ~amount:1.0 in
  Alcotest.check feps "partial flow" 0.4 r.sent

let test_prefers_cheap_path () =
  (* 0->1 direct cost 10 cap 1; 0->2->1 cost 2+2 cap 0.5 each. *)
  let net = N.create 3 in
  ignore (N.add_arc net ~src:0 ~dst:1 ~capacity:1.0 ~cost:10.0);
  ignore (N.add_arc net ~src:0 ~dst:2 ~capacity:0.5 ~cost:2.0);
  ignore (N.add_arc net ~src:2 ~dst:1 ~capacity:0.5 ~cost:2.0);
  let r = MC.solve net ~source:0 ~sink:1 ~amount:1.0 in
  Alcotest.check feps "sent all" 1.0 r.sent;
  (* 0.5 via relay at 4, 0.5 direct at 10. *)
  Alcotest.check feps "split cost" 7.0 r.cost

let test_unit_flow_infeasible () =
  let net = N.create 3 in
  ignore (N.add_arc net ~src:0 ~dst:1 ~capacity:1.0 ~cost:1.0);
  Alcotest.(check (option (float 1e-6))) "no route to 2" None
    (MC.min_cost_unit_flow net ~source:0 ~sink:2)

let test_unit_flow_resets () =
  let net = N.create 2 in
  ignore (N.add_arc net ~src:0 ~dst:1 ~capacity:1.0 ~cost:2.0);
  let a = MC.min_cost_unit_flow net ~source:0 ~sink:1 in
  let b = MC.min_cost_unit_flow net ~source:0 ~sink:1 in
  Alcotest.(check (option (float 1e-6))) "repeatable" a b;
  Alcotest.(check (option (float 1e-6))) "value" (Some 2.0) b

let test_infinite_capacity () =
  let net = N.create 2 in
  ignore (N.add_arc net ~src:0 ~dst:1 ~capacity:infinity ~cost:5.0);
  let r = MC.solve net ~source:0 ~sink:1 ~amount:3.0 in
  Alcotest.check feps "all through" 3.0 r.sent;
  Alcotest.check feps "cost" 15.0 r.cost

let test_negative_residual_cycle_avoided () =
  (* Successive shortest paths keeps optimality: a diamond where greedy
     routing must later re-route through reverse arcs. *)
  let net = N.create 4 in
  ignore (N.add_arc net ~src:0 ~dst:1 ~capacity:1.0 ~cost:1.0);
  ignore (N.add_arc net ~src:0 ~dst:2 ~capacity:1.0 ~cost:2.0);
  ignore (N.add_arc net ~src:1 ~dst:3 ~capacity:1.0 ~cost:2.0);
  ignore (N.add_arc net ~src:2 ~dst:3 ~capacity:1.0 ~cost:1.0);
  ignore (N.add_arc net ~src:1 ~dst:2 ~capacity:1.0 ~cost:0.0);
  let r = MC.solve net ~source:0 ~sink:3 ~amount:2.0 in
  Alcotest.check feps "sent" 2.0 r.sent;
  (* Optimal: 0-1-2-3 at 2 and 0-2? cap... verify against exhaustive value 6. *)
  Alcotest.check feps "optimal cost" 6.0 r.cost

let test_maxflow_simple () =
  let net = N.create 4 in
  ignore (N.add_arc net ~src:0 ~dst:1 ~capacity:3.0 ~cost:0.0);
  ignore (N.add_arc net ~src:0 ~dst:2 ~capacity:2.0 ~cost:0.0);
  ignore (N.add_arc net ~src:1 ~dst:3 ~capacity:2.0 ~cost:0.0);
  ignore (N.add_arc net ~src:2 ~dst:3 ~capacity:2.0 ~cost:0.0);
  Alcotest.check feps "max flow" 4.0 (MF.solve net ~source:0 ~sink:3)

let test_maxflow_needs_residual () =
  (* Classic example where an augmenting path must undo flow. *)
  let net = N.create 4 in
  ignore (N.add_arc net ~src:0 ~dst:1 ~capacity:1.0 ~cost:0.0);
  ignore (N.add_arc net ~src:0 ~dst:2 ~capacity:1.0 ~cost:0.0);
  ignore (N.add_arc net ~src:1 ~dst:2 ~capacity:1.0 ~cost:0.0);
  ignore (N.add_arc net ~src:1 ~dst:3 ~capacity:1.0 ~cost:0.0);
  ignore (N.add_arc net ~src:2 ~dst:3 ~capacity:1.0 ~cost:0.0);
  Alcotest.check feps "max flow" 2.0 (MF.solve net ~source:0 ~sink:3)

let test_network_flow_accounting () =
  let net = N.create 2 in
  let a = N.add_arc net ~src:0 ~dst:1 ~capacity:2.0 ~cost:1.0 in
  N.push net a 0.75;
  Alcotest.check feps "flow recorded" 0.75 (N.flow net a);
  Alcotest.check feps "residual" 1.25 (N.residual net a);
  N.reset net;
  Alcotest.check feps "reset" 0.0 (N.flow net a)

let test_mincost_equals_maxflow_feasibility () =
  (* If maxflow >= 1, min_cost_unit_flow must succeed, and vice versa. *)
  let rng = Bbc_prng.Splitmix.create 77 in
  for _ = 1 to 20 do
    let n = 6 in
    let build () =
      let net = N.create n in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Bbc_prng.Splitmix.float rng 1.0 < 0.3 then
            ignore
              (N.add_arc net ~src:u ~dst:v
                 ~capacity:(Bbc_prng.Splitmix.float rng 1.0)
                 ~cost:(float_of_int (1 + Bbc_prng.Splitmix.int rng 5)))
        done
      done;
      net
    in
    let net = build () in
    let mf = MF.solve net ~source:0 ~sink:(n - 1) in
    N.reset net;
    let unit = MC.min_cost_unit_flow net ~source:0 ~sink:(n - 1) in
    Alcotest.(check bool) "feasibility agreement" (mf >= 1.0 -. 1e-9)
      (Option.is_some unit)
  done

let suite =
  [
    Alcotest.test_case "single arc" `Quick test_single_arc;
    Alcotest.test_case "capacity limits" `Quick test_capacity_limits;
    Alcotest.test_case "prefers cheap path" `Quick test_prefers_cheap_path;
    Alcotest.test_case "unit flow infeasible" `Quick test_unit_flow_infeasible;
    Alcotest.test_case "unit flow resets" `Quick test_unit_flow_resets;
    Alcotest.test_case "infinite capacity" `Quick test_infinite_capacity;
    Alcotest.test_case "rerouting optimality" `Quick test_negative_residual_cycle_avoided;
    Alcotest.test_case "maxflow simple" `Quick test_maxflow_simple;
    Alcotest.test_case "maxflow residual" `Quick test_maxflow_needs_residual;
    Alcotest.test_case "flow accounting" `Quick test_network_flow_accounting;
    Alcotest.test_case "mincost/maxflow feasibility" `Quick test_mincost_equals_maxflow_feasibility;
  ]
