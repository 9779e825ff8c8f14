module SO = Bbc.Social_optimum
module I = Bbc.Instance
module C = Bbc.Config

let test_ring_is_optimal_for_k1 () =
  let inst = I.uniform ~n:4 ~k:1 in
  match SO.analyze inst with
  | Some s ->
      (* The social optimum of (4,1) is the directed 4-cycle: each node
         pays 1+2+3 = 6, total 24 = the degree-1 lower bound. *)
      Alcotest.(check int) "optimum" (Bbc.Metrics.social_cost_lower_bound ~n:4 ~k:1)
        s.optimum;
      Alcotest.(check int) "profiles = 4^4" 256 s.profiles;
      Alcotest.(check bool) "has equilibria" true (s.equilibria > 0);
      (* The optimal profile achieves its reported cost. *)
      Alcotest.(check int) "optimal profile cost" s.optimum
        (Bbc.Eval.social_cost inst s.optimal_profile)
  | None -> Alcotest.fail "space should fit"

let test_pos_poa_ordering () =
  let inst = I.uniform ~n:4 ~k:1 in
  match SO.analyze inst with
  | Some s -> (
      match (SO.price_of_stability s, SO.price_of_anarchy s) with
      | Some pos, Some poa ->
          Alcotest.(check bool) "1 <= PoS" true (pos >= 1.0 -. 1e-9);
          Alcotest.(check bool) "PoS <= PoA" true (pos <= poa +. 1e-9)
      | _ -> Alcotest.fail "uniform games have equilibria")
  | None -> Alcotest.fail "space should fit"

let test_pos_is_one_for_small_uniform () =
  (* (4,1): the optimal ring is itself stable, so PoS = 1 exactly. *)
  let inst = I.uniform ~n:4 ~k:1 in
  match SO.analyze inst with
  | Some s ->
      Alcotest.(check (option (float 1e-9))) "PoS = 1" (Some 1.0)
        (SO.price_of_stability s)
  | None -> Alcotest.fail "space should fit"

let test_no_ne_core_has_no_equilibria () =
  let core = Bbc.Gadget.core () in
  match SO.analyze core with
  | Some s ->
      Alcotest.(check int) "no equilibria" 0 s.equilibria;
      Alcotest.(check (option (float 1e-9))) "PoS undefined" None
        (SO.price_of_stability s);
      Alcotest.(check bool) "optimum still computed" true (s.optimum > 0)
  | None -> Alcotest.fail "space should fit"

let test_candidate_restriction () =
  let inst = I.uniform ~n:4 ~k:1 in
  let ring = Array.init 4 (fun v -> [ [ (v + 1) mod 4 ] ]) in
  match SO.analyze ~candidates:ring inst with
  | Some s ->
      Alcotest.(check int) "single profile" 1 s.profiles;
      Alcotest.(check int) "it is the NE" 1 s.equilibria
  | None -> Alcotest.fail "space should fit"

let test_max_objective () =
  let inst = I.uniform ~n:4 ~k:1 in
  match SO.analyze ~objective:Max inst with
  | Some s ->
      (* Max objective: each ring node's max distance is 3, total 12. *)
      Alcotest.(check int) "max optimum" 12 s.optimum
  | None -> Alcotest.fail "space should fit"

let test_abort_on_large () =
  let inst = I.uniform ~n:10 ~k:2 in
  Alcotest.(check bool) "aborts" true (SO.analyze ~max_profiles:1000 inst = None)

let suite =
  [
    Alcotest.test_case "ring optimal for (4,1)" `Quick test_ring_is_optimal_for_k1;
    Alcotest.test_case "PoS <= PoA" `Quick test_pos_poa_ordering;
    Alcotest.test_case "PoS = 1 for (4,1)" `Quick test_pos_is_one_for_small_uniform;
    Alcotest.test_case "no-NE core" `Slow test_no_ne_core_has_no_equilibria;
    Alcotest.test_case "candidate restriction" `Quick test_candidate_restriction;
    Alcotest.test_case "max objective" `Quick test_max_objective;
    Alcotest.test_case "abort on large spaces" `Quick test_abort_on_large;
  ]

let test_local_search_upper_bounds_exact () =
  let rng = Bbc_prng.Splitmix.create 700 in
  let inst = I.uniform ~n:5 ~k:1 in
  let cost, config = SO.local_search rng inst in
  Alcotest.(check int) "realized" cost (Bbc.Eval.social_cost inst config);
  match SO.analyze inst with
  | Some s -> Alcotest.(check bool) "upper bound" true (cost >= s.optimum)
  | None -> Alcotest.fail "space should fit"

let test_local_search_finds_exact_on_small () =
  (* On (4,1) the landscape is easy: hill climbing reaches the optimum. *)
  let rng = Bbc_prng.Splitmix.create 701 in
  let inst = I.uniform ~n:4 ~k:1 in
  let cost, _ = SO.local_search ~restarts:5 rng inst in
  match SO.analyze inst with
  | Some s -> Alcotest.(check int) "optimum reached" s.optimum cost
  | None -> Alcotest.fail "space should fit"

(* E12's heuristic row: willows k=2 h=2 (n=30, tail 2), one Splitmix
   12012 stream, two restarts.  Cost and profile hash are pinned to
   what the per-candidate reference (Bbc_fuzz.Reference) returns; it
   takes seconds here, so the pin stands in for a live comparison. *)
let e12_willows () =
  let k = 2 and h = 2 in
  let l = max 0 (min 2 (Bbc.Willows.max_tail_for ~k ~h)) in
  fst (Bbc.Willows.build Bbc.Willows.{ k; h; l })

let test_local_search_e12_pin ?objective ~cost ~hash () =
  let rng = Bbc_prng.Splitmix.create 12012 in
  let c, config = SO.local_search ?objective ~restarts:2 rng (e12_willows ()) in
  Alcotest.(check int) "cost" cost c;
  Alcotest.(check int) "profile hash" hash (C.hash config)

(* Non-unit lengths, non-uniform (partly zero) weights, and a start
   that cannot be connected: nobody can afford a link to node 5 and
   node 6 has no budget, so the penalty is charged throughout. *)
let disconnected_weighted () =
  let n = 7 in
  let weight =
    Array.init n (fun u -> Array.init n (fun v -> if u = v then 0 else ((u * 3) + (v * 5)) mod 4))
  in
  let cost = Array.init n (fun u -> Array.init n (fun v -> if v = 5 then 9 else 1 + ((u + v) mod 2))) in
  let length = Array.init n (fun u -> Array.init n (fun v -> 1 + (((u * v) + u) mod 3))) in
  I.general ~weight ~cost ~length ~budget:[| 3; 2; 3; 2; 2; 1; 0 |] ()

let test_local_search_weighted_vs_reference () =
  let inst = disconnected_weighted () in
  List.iter
    (fun (objective, expected) ->
      let rng () = Bbc_prng.Splitmix.create 77 in
      let cost, config = SO.local_search ~objective ~restarts:3 (rng ()) inst in
      let ref_cost, ref_config =
        Bbc_fuzz.Reference.local_search ~objective ~restarts:3 (rng ()) inst
      in
      let name = Bbc.Objective.to_string objective in
      Alcotest.(check int) (name ^ " cost = reference") ref_cost cost;
      Alcotest.(check bool) (name ^ " profile = reference") true (C.equal ref_config config);
      Alcotest.(check int) (name ^ " pinned cost") expected cost;
      Alcotest.(check int) (name ^ " realized") cost
        (Bbc.Eval.social_cost ~objective inst config);
      Alcotest.(check bool) (name ^ " penalty charged") true
        (cost >= I.penalty inst))
    [ (Bbc.Objective.Sum, 937); (Bbc.Objective.Max, 454) ]

let suite =
  suite
  @ [
      Alcotest.test_case "local search upper-bounds" `Quick test_local_search_upper_bounds_exact;
      Alcotest.test_case "local search exact on (4,1)" `Quick test_local_search_finds_exact_on_small;
      Alcotest.test_case "local search E12 pin (sum)" `Quick
        (test_local_search_e12_pin ~cost:2962 ~hash:1750713423955518040);
      Alcotest.test_case "local search E12 pin (max)" `Quick
        (test_local_search_e12_pin ~objective:Bbc.Objective.Max ~cost:157
           ~hash:4166828336777730080);
      Alcotest.test_case "local search weighted, disconnected = reference" `Quick
        test_local_search_weighted_vs_reference;
    ]
