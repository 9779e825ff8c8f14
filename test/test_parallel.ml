(* The multicore execution engine: primitive operations against their
   sequential counterparts on randomized inputs, and the determinism
   contract of the parallelized hot paths — byte-identical results for
   every job count. *)

module P = Bbc_parallel
module Splitmix = Bbc_prng.Splitmix
module I = Bbc.Instance
module C = Bbc.Config

let random_instance_config seed ~n ~k =
  let rng = Splitmix.create seed in
  let inst = I.uniform ~n ~k in
  let g = Bbc_graph.Generators.random_k_out (Splitmix.split rng) ~n ~k in
  (inst, C.of_graph g)

(* ------------------------------------------------------------------ *)
(* Primitives on randomized inputs.                                    *)

let test_parallel_for_covers_range () =
  let rng = Splitmix.create 13 in
  for _ = 1 to 10 do
    let len = 1 + Splitmix.int rng 300 in
    let jobs = 1 + Splitmix.int rng 6 in
    let chunk = 1 + Splitmix.int rng 17 in
    let hits = Array.make len 0 in
    P.parallel_for ~jobs ~chunk 0 len (fun i -> hits.(i) <- hits.(i) + 1);
    Alcotest.(check bool) "each index exactly once" true (Array.for_all (( = ) 1) hits)
  done

let test_find_first_is_sequential_winner () =
  let rng = Splitmix.create 14 in
  for _ = 1 to 20 do
    let len = 1 + Splitmix.int rng 400 in
    (* Several hits; the parallel scan must report the lowest index. *)
    let hit = Array.init len (fun _ -> Splitmix.int rng 10 = 0) in
    let jobs = 1 + Splitmix.int rng 6 in
    let expect =
      let rec go i = if i >= len then None else if hit.(i) then Some i else go (i + 1) in
      go 0
    in
    Alcotest.(check (option int))
      "lowest hit"
      expect
      (P.parallel_find_first ~jobs ~chunk:7 0 len (fun i -> if hit.(i) then Some i else None))
  done

let test_exceptions_propagate () =
  (match P.parallel_for ~jobs:4 0 1000 (fun i -> if i = 500 then failwith "boom") with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  (match P.parallel_find_first ~jobs:4 0 1000 (fun i -> if i = 700 then failwith "bang" else None) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  (* The pool survives a failed task. *)
  Alcotest.(check (option int)) "pool usable after exception" (Some 99)
    (P.parallel_find_first ~jobs:4 0 100 (fun i -> if i = 99 then Some i else None))

let test_nested_calls_degrade () =
  let outer =
    P.parallel_init ~jobs:4 8 (fun i ->
        Array.fold_left ( + ) 0 (P.parallel_init ~jobs:4 50 (fun j -> i + j)))
  in
  Alcotest.(check (array int))
    "nested = sequential"
    (Array.init 8 (fun i -> (50 * i) + 1225))
    outer

(* Index 0 runs on the pool like any other: each [f i] waits (up to
   5 s) for the other to arrive, which only succeeds when both indices
   run at once, not when the caller evaluates [f 0] before the pool
   wakes. *)
let test_init_all_indices_concurrent () =
  let arrived = Atomic.make 0 in
  let f _ =
    Atomic.incr arrived;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    Atomic.get arrived >= 2
  in
  Alcotest.(check (array bool)) "both met" [| true; true |] (P.parallel_init ~jobs:2 2 f)

let test_jobs_for () =
  Alcotest.(check int) "explicit wins" 4 (P.jobs_for ~jobs:4 ~threshold:1000 10);
  Alcotest.(check int) "explicit floored" 1 (P.jobs_for ~jobs:0 ~threshold:0 10);
  Alcotest.(check int) "below threshold sequential" 1 (P.jobs_for ~threshold:64 63)

(* ------------------------------------------------------------------ *)
(* Hot paths: jobs=1 vs jobs=4 identical.                              *)

let test_all_costs_jobs_invariant () =
  List.iter
    (fun (seed, n, k) ->
      let inst, config = random_instance_config seed ~n ~k in
      Alcotest.(check (array int))
        (Printf.sprintf "all_costs n=%d" n)
        (Bbc.Eval.all_costs ~jobs:1 inst config)
        (Bbc.Eval.all_costs ~jobs:4 inst config);
      Alcotest.(check int)
        (Printf.sprintf "social_cost n=%d" n)
        (Bbc.Eval.social_cost ~jobs:1 inst config)
        (Bbc.Eval.social_cost ~jobs:4 inst config))
    [ (21, 30, 2); (22, 77, 3); (23, 150, 2) ]

let test_all_costs_max_objective_jobs_invariant () =
  let inst, config = random_instance_config 31 ~n:90 ~k:2 in
  Alcotest.(check (array int))
    "all_costs max objective"
    (Bbc.Eval.all_costs ~objective:Max ~jobs:1 inst config)
    (Bbc.Eval.all_costs ~objective:Max ~jobs:4 inst config)

let test_apsp_jobs_invariant () =
  (* n >= 128 so the parallel Floyd–Warshall path actually engages. *)
  let rng = Splitmix.create 41 in
  let g = Bbc_graph.Generators.random_k_out rng ~n:140 ~k:3 in
  (* Mix in some non-unit lengths. *)
  for _ = 1 to 100 do
    let u = Splitmix.int rng 140 and v = Splitmix.int rng 140 in
    if u <> v then Bbc_graph.Digraph.add_edge g u v (1 + Splitmix.int rng 5)
  done;
  let m1 = Bbc_graph.Apsp.matrix (Bbc_graph.Apsp.compute ~jobs:1 g) in
  let m4 = Bbc_graph.Apsp.matrix (Bbc_graph.Apsp.compute ~jobs:4 g) in
  Alcotest.(check bool) "matrices equal" true (m1 = m4)

let test_stability_jobs_invariant () =
  (* A stable construction and an unstable random profile. *)
  let willows_inst, willows_cfg = Bbc.Willows.build { k = 2; h = 3; l = 1 } in
  Alcotest.(check bool) "willows stable under 4 domains" true
    (Bbc.Stability.is_stable ~jobs:4 willows_inst willows_cfg);
  Alcotest.(check bool) "willows stable under 3 domains" true
    (Bbc.Stability.is_stable ~jobs:3 willows_inst willows_cfg);
  let inst, config = random_instance_config 51 ~n:40 ~k:2 in
  Alcotest.(check bool)
    "same verdict"
    (Bbc.Stability.is_stable ~jobs:1 inst config)
    (Bbc.Stability.is_stable ~jobs:4 inst config);
  (* find_deviation reports the lowest unstable node either way. *)
  let dev_node ?jobs () =
    Option.map
      (fun (d : Bbc.Stability.deviation) -> (d.node, d.current_cost, d.better))
      (Bbc.Stability.find_deviation ?jobs inst config)
  in
  Alcotest.(check bool) "same first deviation" true (dev_node ~jobs:1 () = dev_node ~jobs:4 ())

let check_configs_equal msg l1 l2 =
  Alcotest.(check bool) msg true (List.length l1 = List.length l2 && List.for_all2 C.equal l1 l2)

let test_exhaustive_complete_jobs_invariant () =
  (* Complete enumeration: everything (including [examined]) must agree. *)
  let inst = I.uniform ~n:5 ~k:1 in
  let r1 = Bbc.Exhaustive.search ~limit:max_int ~jobs:1 inst in
  let r4 = Bbc.Exhaustive.search ~limit:max_int ~jobs:4 inst in
  check_configs_equal "equilibria lists" r1.equilibria r4.equilibria;
  Alcotest.(check int) "examined" r1.examined r4.examined;
  Alcotest.(check bool) "complete" r1.complete r4.complete;
  Alcotest.(check (option int))
    "count_equilibria"
    (Bbc.Exhaustive.count_equilibria ~jobs:1 inst)
    (Bbc.Exhaustive.count_equilibria ~jobs:4 inst)

let test_exhaustive_limited_jobs_invariant () =
  (* Early abort: the reported equilibria must still be the first ones in
     enumeration order, for several limits and a non-uniform instance. *)
  let insts =
    [
      ("uniform n=5 k=2", I.uniform ~n:5 ~k:2);
      ("sparse weights", Bbc.Gen_instance.sparse_weights (Splitmix.create 7) ~n:5 ~k:2 ());
    ]
  in
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun limit ->
          let r1 = Bbc.Exhaustive.search ~limit ~jobs:1 inst in
          let r4 = Bbc.Exhaustive.search ~limit ~jobs:4 inst in
          check_configs_equal
            (Printf.sprintf "%s limit=%d equilibria" name limit)
            r1.equilibria r4.equilibria;
          Alcotest.(check bool)
            (Printf.sprintf "%s limit=%d complete" name limit)
            r1.complete r4.complete)
        [ 1; 2; 5 ])
    insts

let test_exhaustive_early_abort_finds_equilibrium () =
  (* The (n,1)-uniform game has pure equilibria (directed rings); the
     parallel limit=1 search must surface one and mark the search
     incomplete (it stopped early). *)
  let inst = I.uniform ~n:5 ~k:1 in
  let r = Bbc.Exhaustive.search ~limit:1 ~jobs:4 inst in
  (match r.equilibria with
  | [ config ] ->
      Alcotest.(check bool) "found profile is stable" true (Bbc.Stability.is_stable inst config)
  | other -> Alcotest.failf "expected exactly one equilibrium, got %d" (List.length other));
  Alcotest.(check bool) "aborted early" false r.complete;
  Alcotest.(check (option bool))
    "has_equilibrium under 4 domains"
    (Some true)
    (Bbc.Exhaustive.has_equilibrium ~jobs:4 inst)

let test_exhaustive_no_equilibrium_jobs_invariant () =
  (* A candidate restriction of the (4,1)-uniform game that provably
     contains no pure NE (checked by full enumeration): both job counts
     must certify the same absence after examining the whole space. *)
  let inst = I.uniform ~n:4 ~k:1 in
  let candidates = [| [ [ 1 ]; [ 2 ] ]; [ [ 2 ]; [ 3 ] ]; [ [ 3 ]; [ 1 ] ]; [ [ 1 ]; [ 2 ] ] |] in
  let r1 = Bbc.Exhaustive.search ~candidates ~limit:1 ~jobs:1 inst in
  let r4 = Bbc.Exhaustive.search ~candidates ~limit:1 ~jobs:4 inst in
  Alcotest.(check bool) "no equilibrium (seq)" true (r1.equilibria = []);
  Alcotest.(check bool) "no equilibrium (par)" true (r4.equilibria = []);
  Alcotest.(check bool) "both complete" true (r1.complete && r4.complete);
  Alcotest.(check int) "same examined" r1.examined r4.examined

let test_dynamics_jobs_independent () =
  (* Max_cost_first scans its nodes sequentially, so the pool's default
     job count must leave the walk untouched. *)
  let inst, config = random_instance_config 61 ~n:12 ~k:2 in
  let run jobs =
    P.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> P.set_default_jobs 1)
      (fun () ->
        Bbc.Dynamics.run ~scheduler:Bbc.Dynamics.Max_cost_first ~max_rounds:200 inst config)
  in
  let o1 = run 1 and o4 = run 4 in
  Alcotest.(check bool) "same final config" true
    (C.equal (Bbc.Dynamics.final_config o1) (Bbc.Dynamics.final_config o4));
  Alcotest.(check bool) "same stats" true (Bbc.Dynamics.stats o1 = Bbc.Dynamics.stats o4)

(* Uniform k = 1 walks past the pool threshold (n = 70): the closed
   form runs inside Max_cost_first's sequential improving scans, and the
   whole step stream must not depend on the default job count. *)
let test_k1_dynamics_jobs_invariant () =
  let inst, config = Bbc.Constructions.ring_with_path ~ring:50 ~path:20 in
  let trace policy jobs =
    P.set_default_jobs jobs;
    let steps = ref [] in
    Fun.protect
      ~finally:(fun () -> P.set_default_jobs 1)
      (fun () ->
        let o =
          Bbc.Dynamics.run ~policy
            ~on_step:(fun (s : Bbc.Dynamics.step) ->
              steps := (s.index, s.node, s.moved, s.strategy, s.cost_after) :: !steps)
            ~scheduler:Bbc.Dynamics.Max_cost_first ~max_rounds:20_000 inst config
        in
        (List.rev !steps, Bbc.Dynamics.stats o, Bbc.Dynamics.final_config o))
  in
  List.iter
    (fun policy ->
      let s1, st1, c1 = trace policy 1 and s4, st4, c4 = trace policy 4 in
      Alcotest.(check bool) "same step stream" true (s1 = s4);
      Alcotest.(check bool) "same stats" true (st1 = st4);
      Alcotest.(check bool) "same final config" true (C.equal c1 c4))
    [ Bbc.Dynamics.Exact_best_response; Bbc.Dynamics.First_improvement ]

(* Which scans wake the pool, at default jobs 2: the whole-profile
   scans that workloads and CI gates run in parallel fan out past their
   thresholds; Max_cost_first, [nodes_stable] and the uniform k = 1
   closed form run on the caller only.  [pool.runs]
   counts real fan-outs (jobs > 1, not nested). *)
let test_fanout_sites () =
  let runs = Bbc_obs.counter "pool.runs" in
  let count f =
    let before = Bbc_obs.counter_value runs in
    ignore (Sys.opaque_identity (f ()));
    Bbc_obs.counter_value runs - before
  in
  P.set_default_jobs 2;
  Bbc_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Bbc_obs.disable ();
      Bbc_obs.reset ();
      P.set_default_jobs 1)
    (fun () ->
      let ring_inst, ring_cfg = Bbc.Constructions.ring_with_path ~ring:50 ~path:20 in
      let inst, config = random_instance_config 71 ~n:80 ~k:2 in
      let none name f = Alcotest.(check int) (name ^ ": no fan-out") 0 (count f) in
      let some name f =
        Alcotest.(check bool) (name ^ ": fans out") true (count f >= 1)
      in
      none "max-cost walk" (fun () ->
          Bbc.Dynamics.run ~scheduler:Bbc.Dynamics.Max_cost_first ~max_rounds:50 ring_inst ring_cfg);
      none "nodes_stable" (fun () ->
          Bbc.Stability.nodes_stable inst config (List.init (I.n inst) Fun.id));
      some "find_deviation" (fun () -> Bbc.Stability.find_deviation inst config);
      some "is_stable" (fun () -> Bbc.Stability.is_stable inst config);
      some "all_costs" (fun () -> Bbc.Eval.all_costs inst config);
      (* Stability scans are sized by work, not node count: 36 nodes
         with ~60k affordable subsets each fan out.  Uniform k = 1
         functional profiles take one O(n) pass on the caller at any
         size. *)
      let fig6_inst, fig6_cfg = Bbc.Constructions.max_anarchy ~k:4 ~l:5 in
      some "is_stable fig-6 k=4 (36 nodes)" (fun () ->
          Bbc.Stability.is_stable ~objective:Max fig6_inst fig6_cfg);
      none "find_deviation k=1 ring+path (70 nodes)" (fun () ->
          Bbc.Stability.find_deviation ring_inst ring_cfg);
      none "find_deviation k=1 ring (24 nodes)" (fun () ->
          Bbc.Stability.find_deviation (I.uniform ~n:24 ~k:1)
            (C.of_graph (Bbc_graph.Generators.directed_ring 24))))

let suite =
  [
    Alcotest.test_case "parallel_for covers range once" `Quick test_parallel_for_covers_range;
    Alcotest.test_case "find_first returns lowest index" `Quick test_find_first_is_sequential_winner;
    Alcotest.test_case "exceptions propagate, pool survives" `Quick test_exceptions_propagate;
    Alcotest.test_case "nested calls degrade to sequential" `Quick test_nested_calls_degrade;
    Alcotest.test_case "parallel_init runs every index on the pool" `Quick test_init_all_indices_concurrent;
    Alcotest.test_case "jobs_for policy" `Quick test_jobs_for;
    Alcotest.test_case "all_costs jobs-invariant" `Quick test_all_costs_jobs_invariant;
    Alcotest.test_case "all_costs max objective jobs-invariant" `Quick test_all_costs_max_objective_jobs_invariant;
    Alcotest.test_case "apsp jobs-invariant" `Quick test_apsp_jobs_invariant;
    Alcotest.test_case "stability jobs-invariant" `Quick test_stability_jobs_invariant;
    Alcotest.test_case "exhaustive complete jobs-invariant" `Quick test_exhaustive_complete_jobs_invariant;
    Alcotest.test_case "exhaustive limited jobs-invariant" `Quick test_exhaustive_limited_jobs_invariant;
    Alcotest.test_case "exhaustive early abort finds NE" `Quick test_exhaustive_early_abort_finds_equilibrium;
    Alcotest.test_case "exhaustive absence certified in parallel" `Quick test_exhaustive_no_equilibrium_jobs_invariant;
    Alcotest.test_case "dynamics independent of pool size" `Quick test_dynamics_jobs_independent;
    Alcotest.test_case "k=1 dynamics jobs-invariant" `Quick test_k1_dynamics_jobs_invariant;
    Alcotest.test_case "fan-out only at traffic sites" `Quick test_fanout_sites;
  ]
