module R = Bbc.Reduction
module Cnf = Bbc_sat.Cnf
module Solver = Bbc_sat.Solver
module I = Bbc.Instance
module C = Bbc.Config

let sat_formula () =
  Cnf.make ~num_vars:3 [ [ 1; 2; 3 ]; [ -1; 2; -3 ]; [ 1; -2; 3 ] ]

let unsat_formula () = Cnf.make ~num_vars:1 [ [ 1; 1; 1 ]; [ -1; -1; -1 ] ]

let test_build_shape () =
  let t = R.build (sat_formula ()) in
  (* 3 vars * 3 + 3 clauses * 4 + S + H + 5 core = 28. *)
  Alcotest.(check int) "node count" 28 (I.n t.instance);
  Alcotest.(check int) "sink budget 0" 0 (I.budget t.instance t.sink);
  Alcotest.(check int) "hub budget m" 3 (I.budget t.instance t.hub);
  Alcotest.(check int) "variable budget" 1 (I.budget t.instance (t.var_node 2));
  Alcotest.(check int) "truth budget 0" 0 (I.budget t.instance (t.truth_node 2 true))

let test_non_depicted_unaffordable () =
  let t = R.build (sat_formula ()) in
  (* A variable node cannot afford a link to another variable's truth
     node. *)
  Alcotest.(check bool) "priced out" true
    (I.cost t.instance (t.var_node 1) (t.truth_node 2 true)
    > I.budget t.instance (t.var_node 1));
  (* But its own truth links cost 1. *)
  Alcotest.(check int) "depicted link" 1
    (I.cost t.instance (t.var_node 1) (t.truth_node 1 false))

let test_encode_is_nash_when_satisfiable () =
  let f = sat_formula () in
  let t = R.build f in
  match Solver.solve f with
  | Sat assignment ->
      let config = R.encode t assignment in
      Alcotest.(check bool) "feasible" true (C.feasible t.instance config);
      Alcotest.(check bool) "pure NE" true (Bbc.Stability.is_stable t.instance config)
  | Unsat -> Alcotest.fail "formula is satisfiable"

let test_encode_decode_roundtrip () =
  let f = sat_formula () in
  let t = R.build f in
  match Solver.solve f with
  | Sat assignment ->
      let decoded = R.decode t (R.encode t assignment) in
      Alcotest.(check bool) "decoded satisfies" true (Cnf.eval f decoded);
      for i = 1 to Cnf.num_vars f do
        Alcotest.(check bool) "assignment preserved" assignment.(i) decoded.(i)
      done
  | Unsat -> Alcotest.fail "formula is satisfiable"

let test_every_satisfying_assignment_encodes_to_ne () =
  (* All satisfying assignments of a small formula yield equilibria. *)
  let f = Cnf.make ~num_vars:2 [ [ 1; 2; 2 ]; [ -1; 2; 2 ] ] in
  let t = R.build f in
  let assignment = Array.make 3 false in
  for a = 0 to 3 do
    assignment.(1) <- a land 1 = 1;
    assignment.(2) <- a land 2 = 2;
    if Cnf.eval f assignment then
      Alcotest.(check bool) "NE" true
        (Bbc.Stability.is_stable t.instance (R.encode t assignment))
  done

let test_unsatisfied_encoding_is_unstable () =
  (* Encoding a non-satisfying assignment must NOT be stable (the central
     node or a clause node deviates). *)
  let f = sat_formula () in
  let t = R.build f in
  let assignment = [| false; false; false; false |] in
  (* clause 3 = (x1 | -x2 | x3) is satisfied by all-false?  -x2 yes!
     pick all-false only if it fails the formula; otherwise find one. *)
  let falsifying = ref None in
  (try
     for a = 0 to 7 do
       let s = Array.init 4 (fun i -> i > 0 && (a lsr (i - 1)) land 1 = 1) in
       if not (Cnf.eval f s) then begin
         falsifying := Some s;
         raise Exit
       end
     done
   with Exit -> ());
  (match !falsifying with
  | Some s ->
      Alcotest.(check bool) "not stable" false
        (Bbc.Stability.is_stable t.instance (R.encode t s))
  | None -> Alcotest.fail "tautology?");
  ignore assignment

let test_unsat_has_no_ne_restricted () =
  let t = R.build (unsat_formula ()) in
  let candidates = R.candidate_strategies t in
  match Bbc.Exhaustive.has_equilibrium ~candidates t.instance with
  | Some b -> Alcotest.(check bool) "no NE over reduced space" false b
  | None -> Alcotest.fail "search aborted"

let test_sat_has_ne_restricted () =
  (* The same reduced space does contain the equilibrium when the formula
     is satisfiable. *)
  let f = Cnf.make ~num_vars:1 [ [ 1; 1; 1 ] ] in
  let t = R.build f in
  let candidates = R.candidate_strategies t in
  match Bbc.Exhaustive.has_equilibrium ~candidates t.instance with
  | Some b -> Alcotest.(check bool) "NE exists" true b
  | None -> Alcotest.fail "search aborted"

let test_rejects_non_3sat () =
  Alcotest.(check bool) "wide clause rejected" true
    (try
       ignore (R.build (Cnf.make ~num_vars:4 [ [ 1; 2; 3; 4 ] ]));
       false
     with Invalid_argument _ -> true)

let test_unsat_pair_and_larger () =
  (* V=2, m=4 unsatisfiable formula: (x|y|y)(x|-y|-y)(-x|y|y)(-x|-y|-y). *)
  let f =
    Cnf.make ~num_vars:2
      [ [ 1; 2; 2 ]; [ 1; -2; -2 ]; [ -1; 2; 2 ]; [ -1; -2; -2 ] ]
  in
  Alcotest.(check bool) "unsat" false (Sat_reference.is_satisfiable f);
  let t = R.build f in
  let candidates = R.candidate_strategies t in
  match Bbc.Exhaustive.has_equilibrium ~candidates t.instance with
  | Some b -> Alcotest.(check bool) "no NE" false b
  | None -> Alcotest.fail "search aborted"

let suite =
  [
    Alcotest.test_case "layout" `Quick test_build_shape;
    Alcotest.test_case "non-depicted links priced out" `Quick test_non_depicted_unaffordable;
    Alcotest.test_case "SAT -> encoded profile is a NE" `Quick test_encode_is_nash_when_satisfiable;
    Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "all satisfying assignments -> NEs" `Quick test_every_satisfying_assignment_encodes_to_ne;
    Alcotest.test_case "falsifying encoding unstable" `Quick test_unsatisfied_encoding_is_unstable;
    Alcotest.test_case "UNSAT -> no NE (restricted)" `Quick test_unsat_has_no_ne_restricted;
    Alcotest.test_case "SAT -> NE found (restricted)" `Quick test_sat_has_ne_restricted;
    Alcotest.test_case "rejects non-3SAT" `Quick test_rejects_non_3sat;
    Alcotest.test_case "larger UNSAT instance" `Slow test_unsat_pair_and_larger;
  ]

let test_build_k_shapes () =
  let t = R.build_k ~k:2 (sat_formula ()) in
  Alcotest.(check int) "uniform budget" 2 (I.budget t.instance 0);
  Alcotest.(check int) "anchors" 3 (List.length t.anchors);
  List.iter
    (fun u -> Alcotest.(check int) "every budget = k" 2 (I.budget t.instance u))
    (List.init (I.n t.instance) Fun.id);
  (* k = 1 via build_k coincides with build. *)
  let t1 = R.build_k ~k:1 (sat_formula ()) in
  Alcotest.(check int) "k=1 fallthrough" 1 t1.budget_k;
  Alcotest.(check (list int)) "no anchors at k=1" [] t1.anchors

let test_build_k_sat_direction () =
  List.iter
    (fun k ->
      let f = sat_formula () in
      let t = R.build_k ~k f in
      match Solver.solve f with
      | Sat assignment ->
          let config = R.encode t assignment in
          Alcotest.(check bool) "feasible" true (C.feasible t.instance config);
          Alcotest.(check bool)
            (Printf.sprintf "k=%d pure NE" k)
            true
            (Bbc.Stability.is_stable t.instance config);
          Alcotest.(check bool) "decodes" true
            (Cnf.eval f (R.decode t config))
      | Unsat -> Alcotest.fail "satisfiable formula")
    [ 2; 3 ]

let test_build_k_unsat_direction () =
  List.iter
    (fun k ->
      let t = R.build_k ~k (unsat_formula ()) in
      let candidates = R.candidate_strategies t in
      match Bbc.Exhaustive.has_equilibrium ~candidates t.instance with
      | Some b ->
          Alcotest.(check bool) (Printf.sprintf "k=%d no NE" k) false b
      | None -> Alcotest.fail "search aborted")
    [ 2; 3 ]

let test_build_k_anchors_forced () =
  (* In the encoded equilibrium, every non-anchor node holds its anchor
     links (they are strictly dominant). *)
  let f = sat_formula () in
  let t = R.build_k ~k:2 f in
  match Solver.solve f with
  | Sat assignment ->
      let config = R.encode t assignment in
      let var = t.var_node 1 in
      let targets = C.targets config var in
      Alcotest.(check bool) "variable holds an anchor" true
        (List.exists (fun v -> List.mem v t.anchors) targets)
  | Unsat -> Alcotest.fail "satisfiable formula"

let suite =
  suite
  @ [
      Alcotest.test_case "build_k shapes" `Quick test_build_k_shapes;
      Alcotest.test_case "build_k SAT -> NE (k=2,3)" `Quick test_build_k_sat_direction;
      Alcotest.test_case "build_k UNSAT -> no NE (k=2,3)" `Slow test_build_k_unsat_direction;
      Alcotest.test_case "build_k anchors forced" `Quick test_build_k_anchors_forced;
    ]
