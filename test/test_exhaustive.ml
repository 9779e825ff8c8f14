module I = Bbc.Instance
module C = Bbc.Config
module X = Bbc.Exhaustive

let test_all_strategies_count () =
  (* (4,1)-uniform: each node has 3 single links + empty = 4 strategies. *)
  let inst = I.uniform ~n:4 ~k:1 in
  Alcotest.(check int) "k=1 strategies" 4 (List.length (X.all_strategies inst 0));
  (* (4,2): empty + 3 singles + 3 pairs = 7. *)
  let inst2 = I.uniform ~n:4 ~k:2 in
  Alcotest.(check int) "k=2 strategies" 7 (List.length (X.all_strategies inst2 0))

let test_all_strategies_budgeted () =
  let w = Array.make_matrix 3 3 1 in
  let cost = [| [| 0; 2; 3 |]; [| 1; 0; 1 |]; [| 1; 1; 0 |] |] in
  let ones = Array.make_matrix 3 3 1 in
  let inst = I.general ~weight:w ~cost ~length:ones ~budget:[| 3; 0; 2 |] () in
  (* Node 0 (budget 3): {}, {1}, {2} — the pair costs 5 > 3. *)
  Alcotest.(check int) "node 0" 3 (List.length (X.all_strategies inst 0));
  (* Node 1 (budget 0): only {}. *)
  Alcotest.(check (list (list int))) "node 1" [ [] ] (X.all_strategies inst 1)

let test_maximal_strategies () =
  let inst = I.uniform ~n:4 ~k:2 in
  let ms = X.maximal_strategies inst 0 in
  Alcotest.(check int) "pairs only" 3 (List.length ms);
  List.iter (fun s -> Alcotest.(check int) "size 2" 2 (List.length s)) ms

let test_space_size () =
  let inst = I.uniform ~n:4 ~k:1 in
  let cands = Array.init 4 (X.all_strategies inst) in
  Alcotest.(check (float 1e-9)) "4^4" 256.0 (X.space_size cands)

let test_ring_equilibria_found () =
  let inst = I.uniform ~n:4 ~k:1 in
  let r = X.search ~limit:max_int inst in
  Alcotest.(check bool) "complete" true r.complete;
  Alcotest.(check int) "every profile examined" 256 r.examined;
  (* Every reported equilibrium must verify. *)
  List.iter
    (fun c -> Alcotest.(check bool) "verified" true (Bbc.Stability.is_stable inst c))
    r.equilibria;
  (* The two directed 4-cycles through all nodes are among them. *)
  let cycle = C.of_lists 4 [| [ 1 ]; [ 2 ]; [ 3 ]; [ 0 ] |] in
  Alcotest.(check bool) "contains the ring" true
    (List.exists (C.equal cycle) r.equilibria);
  Alcotest.(check bool) "there are equilibria" true (r.equilibria <> [])

let test_limit_short_circuits () =
  let inst = I.uniform ~n:4 ~k:1 in
  let r = X.search ~limit:1 inst in
  Alcotest.(check int) "one found" 1 (List.length r.equilibria);
  Alcotest.(check bool) "search stopped early" true (r.examined < 256)

let test_max_profiles_aborts () =
  let inst = I.uniform ~n:4 ~k:1 in
  let r = X.search ~limit:max_int ~max_profiles:10 inst in
  Alcotest.(check bool) "incomplete" false r.complete;
  Alcotest.(check int) "examined exactly the cap" 10 r.examined

let test_candidate_restriction () =
  let inst = I.uniform ~n:4 ~k:1 in
  (* Restrict everyone to the ring strategy: exactly one profile. *)
  let cands = Array.init 4 (fun v -> [ [ (v + 1) mod 4 ] ]) in
  let r = X.search ~candidates:cands ~limit:max_int inst in
  Alcotest.(check int) "one profile" 1 r.examined;
  Alcotest.(check int) "it is stable" 1 (List.length r.equilibria)

let test_has_equilibrium () =
  let inst = I.uniform ~n:4 ~k:1 in
  Alcotest.(check (option bool)) "uniform games have NE" (Some true)
    (X.has_equilibrium inst);
  Alcotest.(check (option bool)) "abort yields None" None
    (X.has_equilibrium ~max_profiles:1 ~candidates:(Array.init 4 (fun v -> [ []; [ (v + 1) mod 4 ] ])) inst)

let test_count_equilibria_small () =
  (* n=2, k=1: profiles: each node links the other or nothing.  Stable
     iff both link each other (others strictly improve). *)
  let inst = I.uniform ~n:2 ~k:1 in
  Alcotest.(check (option int)) "unique NE" (Some 1) (X.count_equilibria inst)

(* Pinning each single-preference node to its one preferred link loses
   no equilibrium at k = 1: over seeded games with such nodes, the pinned
   space has exactly the full space's equilibria under Max. *)
let test_forced_candidates_sound () =
  let rng = Bbc_prng.Splitmix.create 7 in
  for _ = 1 to 50 do
    let n = 4 + Bbc_prng.Splitmix.int rng 2 in
    let weight = Array.make_matrix n n 0 in
    for u = 0 to n - 1 do
      let count = if u = 0 || Bbc_prng.Splitmix.bool rng then 1 else Bbc_prng.Splitmix.int rng 4 in
      List.iter
        (fun t -> weight.(u).(if t >= u then t + 1 else t) <- 1 + Bbc_prng.Splitmix.int rng 3)
        (Bbc_prng.Splitmix.sample_without_replacement rng count (n - 1))
    done;
    let inst = I.of_weights ~k:1 weight in
    let candidates = X.forced_candidates inst in
    Alcotest.(check bool) "some node pinned" true (Array.exists (fun c -> List.length c = 1) candidates);
    Alcotest.(check (option bool)) "has_equilibrium"
      (X.has_equilibrium ~objective:Max inst)
      (X.has_equilibrium ~objective:Max ~candidates inst);
    Alcotest.(check (option int)) "count_equilibria"
      (X.count_equilibria ~objective:Max inst)
      (X.count_equilibria ~objective:Max ~candidates inst)
  done

let suite =
  [
    Alcotest.test_case "all_strategies counts" `Quick test_all_strategies_count;
    Alcotest.test_case "all_strategies respects budget" `Quick test_all_strategies_budgeted;
    Alcotest.test_case "maximal strategies" `Quick test_maximal_strategies;
    Alcotest.test_case "space size" `Quick test_space_size;
    Alcotest.test_case "(4,1) equilibria" `Quick test_ring_equilibria_found;
    Alcotest.test_case "limit short-circuits" `Quick test_limit_short_circuits;
    Alcotest.test_case "max_profiles aborts" `Quick test_max_profiles_aborts;
    Alcotest.test_case "candidate restriction" `Quick test_candidate_restriction;
    Alcotest.test_case "has_equilibrium" `Quick test_has_equilibrium;
    Alcotest.test_case "count equilibria n=2" `Quick test_count_equilibria_small;
    Alcotest.test_case "forced pinning keeps every Max NE" `Quick test_forced_candidates_sound;
  ]
