module Cnf = Bbc_sat.Cnf
module Solver = Bbc_sat.Solver
module Dimacs = Bbc_sat.Dimacs
module Gen = Bbc_sat.Gen
module SM = Bbc_prng.Splitmix

let check_witness f = function
  | Solver.Sat w -> Alcotest.(check bool) "witness satisfies" true (Cnf.eval f w)
  | Solver.Unsat -> Alcotest.fail "expected satisfiable"

let test_trivial_sat () =
  let f = Cnf.make ~num_vars:1 [ [ 1 ] ] in
  check_witness f (Solver.solve f)

let test_trivial_unsat () =
  let f = Cnf.make ~num_vars:1 [ [ 1 ]; [ -1 ] ] in
  Alcotest.(check bool) "unsat" false (Sat_reference.is_satisfiable f)

let test_three_sat () =
  let f = Cnf.make ~num_vars:3 [ [ 1; 2; 3 ]; [ -1; -2; -3 ]; [ 1; -2; 3 ] ] in
  check_witness f (Solver.solve f)

let test_forced_chain () =
  (* Unit propagation chain: x1, x1->x2, x2->x3, and require x3. *)
  let f = Cnf.make ~num_vars:3 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ]; [ 3 ] ] in
  match Solver.solve f with
  | Sat w ->
      Alcotest.(check bool) "x1" true w.(1);
      Alcotest.(check bool) "x2" true w.(2);
      Alcotest.(check bool) "x3" true w.(3)
  | Unsat -> Alcotest.fail "satisfiable"

let test_pigeonhole_unsat () =
  let f = Gen.pigeonhole ~holes:3 in
  Alcotest.(check bool) "PHP(4,3) unsat" false (Sat_reference.is_satisfiable f)

let test_pigeonhole_small () =
  let f = Gen.pigeonhole ~holes:1 in
  Alcotest.(check bool) "PHP(2,1) unsat" false (Sat_reference.is_satisfiable f)

let test_count_models () =
  (* (x1 | x2): 3 of 4 assignments. *)
  let f = Cnf.make ~num_vars:2 [ [ 1; 2 ] ] in
  Alcotest.(check int) "models" 3 (Sat_reference.count_models f)

let test_solver_agrees_with_enumeration () =
  let rng = SM.create 41 in
  for _ = 1 to 50 do
    let f = Gen.random_3sat rng ~num_vars:6 ~num_clauses:15 in
    let by_enum = Sat_reference.count_models f > 0 in
    Alcotest.(check bool) "dpll = enumeration" by_enum (Sat_reference.is_satisfiable f)
  done

let test_planted_is_satisfiable () =
  let rng = SM.create 43 in
  for _ = 1 to 20 do
    let f, hidden = Gen.planted_3sat rng ~num_vars:8 ~num_clauses:30 in
    Alcotest.(check bool) "hidden satisfies" true (Cnf.eval f hidden);
    Alcotest.(check bool) "solver agrees" true (Sat_reference.is_satisfiable f)
  done

let test_dimacs_roundtrip () =
  let rng = SM.create 47 in
  for _ = 1 to 10 do
    let f = Gen.random_3sat rng ~num_vars:5 ~num_clauses:8 in
    match Dimacs.parse (Sat_reference.print f) with
    | Ok f' ->
        Alcotest.(check int) "vars" (Cnf.num_vars f) (Cnf.num_vars f');
        Alcotest.(check bool) "clauses" true (Cnf.clauses f = Cnf.clauses f')
    | Error e -> Alcotest.fail e
  done

let test_dimacs_parse () =
  let text = "c a comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n" in
  match Dimacs.parse text with
  | Ok f ->
      Alcotest.(check int) "vars" 3 (Cnf.num_vars f);
      Alcotest.(check bool) "clauses" true
        (Cnf.clauses f = [ [ 1; -2; 3 ]; [ -1; 2 ] ])
  | Error e -> Alcotest.fail e

let test_dimacs_multiline_clause () =
  let text = "p cnf 3 1\n1\n2\n3 0\n" in
  match Dimacs.parse text with
  | Ok f -> Alcotest.(check bool) "one clause" true (Cnf.clauses f = [ [ 1; 2; 3 ] ])
  | Error e -> Alcotest.fail e

let test_dimacs_errors () =
  Alcotest.(check bool) "missing header" true (Result.is_error (Dimacs.parse "1 2 0"));
  Alcotest.(check bool) "wrong count" true
    (Result.is_error (Dimacs.parse "p cnf 2 2\n1 0\n"));
  Alcotest.(check bool) "unterminated" true
    (Result.is_error (Dimacs.parse "p cnf 2 1\n1 2\n"));
  Alcotest.(check bool) "out-of-range literal" true
    (Result.is_error (Dimacs.parse "p cnf 1 1\n5 0\n"))

let test_cnf_validation () =
  Alcotest.(check bool) "zero literal rejected" true
    (try
       ignore (Cnf.make ~num_vars:2 [ [ 0 ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty clause rejected" true
    (try
       ignore (Cnf.make ~num_vars:2 [ [] ]);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "three sat" `Quick test_three_sat;
    Alcotest.test_case "unit propagation chain" `Quick test_forced_chain;
    Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
    Alcotest.test_case "pigeonhole minimal" `Quick test_pigeonhole_small;
    Alcotest.test_case "count models" `Quick test_count_models;
    Alcotest.test_case "dpll agrees with enumeration" `Quick test_solver_agrees_with_enumeration;
    Alcotest.test_case "planted formulas satisfiable" `Quick test_planted_is_satisfiable;
    Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
    Alcotest.test_case "dimacs parse" `Quick test_dimacs_parse;
    Alcotest.test_case "dimacs multiline clause" `Quick test_dimacs_multiline_clause;
    Alcotest.test_case "dimacs errors" `Quick test_dimacs_errors;
    Alcotest.test_case "cnf validation" `Quick test_cnf_validation;
  ]
