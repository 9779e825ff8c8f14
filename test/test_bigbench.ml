(* The large-n engine: streaming builders vs the Digraph route, banned
   sweeps vs skip snapshots, the landmark estimator vs the exact social
   cost, and sampled best response. *)

module Csr = Bbc_graph.Csr
module SM = Bbc_prng.Splitmix
open Bbc

let families =
  [
    ("ring", Gen_instance.Ring);
    ("tree", Gen_instance.Tree);
    ("willows", Gen_instance.Willows_family);
    ("circulant", Gen_instance.Circulant);
    ("random", Gen_instance.Random_k);
  ]

(* Small parameter grid exercising every family, including willows tails
   of length 0 and > 0 and wrap-around circulants. *)
let grid = [ (24, 1, 3); (40, 2, 7); (60, 3, 11); (90, 2, 42) ]

let test_streaming_equals_digraph_route () =
  List.iter
    (fun (name, fam) ->
      List.iter
        (fun (n, k, seed) ->
          let _, streamed = Gen_instance.streaming fam ~n ~k ~seed in
          let reference = Gen_instance.streaming_reference_csr fam ~n ~k ~seed in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d k=%d: streaming = of_digraph" name n k)
            true
            (Csr.equal streamed reference))
        grid)
    families

let test_streaming_equals_config_route () =
  List.iter
    (fun (name, fam) ->
      List.iter
        (fun (n, k, seed) ->
          let inst, streamed = Gen_instance.streaming fam ~n ~k ~seed in
          let inst', config = Gen_instance.streaming_reference fam ~n ~k ~seed in
          Alcotest.(check int)
            (Printf.sprintf "%s: same node count" name)
            (Instance.n inst) (Instance.n inst');
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d k=%d: streaming = Config.to_csr" name n k)
            true
            (Csr.equal streamed (Config.to_csr inst' config));
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d k=%d: reference profile feasible" name n k)
            true
            (Config.feasible inst' config))
        grid)
    families

let test_streaming_willows_matches_module () =
  (* When n is exactly a willows size, the streamed profile must be the
     Willows module's construction itself. *)
  let p = { Willows.k = 2; h = 2; l = 3 } in
  let n = Willows.size p in
  let _, config = Willows.build p in
  let _, streamed = Gen_instance.streaming Willows_family ~n ~k:2 ~seed:0 in
  let inst', reference = Gen_instance.streaming_reference Willows_family ~n ~k:2 ~seed:0 in
  Alcotest.(check int) "exact willows size" n (Instance.n inst');
  Alcotest.(check bool) "streamed = willows profile" true
    (Config.equal config reference);
  Alcotest.(check bool) "csr matches too" true
    (Csr.equal streamed (Config.to_csr inst' config))

let test_streaming_random_matches_generator () =
  (* The random family consumes randomness exactly like
     Generators.random_k_out, so the realized edge sets coincide. *)
  List.iter
    (fun (n, k, seed) ->
      let _, config = Gen_instance.streaming_reference Random_k ~n ~k ~seed in
      let g = Bbc_graph.Generators.random_k_out (SM.create seed) ~n ~k in
      Alcotest.(check bool)
        (Printf.sprintf "random n=%d k=%d seed=%d = random_k_out" n k seed)
        true
        (Config.equal config (Config.of_graph g)))
    grid

let test_streaming_circulant_matches_cayley () =
  List.iter
    (fun (n, k, seed) ->
      let _, config = Gen_instance.streaming_reference Circulant ~n ~k ~seed in
      let c = Bbc_group.Cayley.random_circulant (SM.create seed) ~n ~k in
      let _, reference = Cayley_game.to_game c in
      Alcotest.(check bool)
        (Printf.sprintf "circulant n=%d k=%d seed=%d = Cayley" n k seed)
        true
        (Config.equal config reference))
    grid

(* ------------------------------------------------------------------ *)
(* Banned sweeps.                                                      *)

let random_weighted rng ~n ~max_len =
  let g = Bbc_graph.Digraph.create n in
  for u = 0 to n - 1 do
    let deg = SM.int rng 4 in
    for _ = 1 to deg do
      let v = SM.int rng n in
      if v <> u then Bbc_graph.Digraph.add_edge g u v (SM.int rng (max_len + 1))
    done
  done;
  g

let test_ban_equals_skip_snapshot () =
  let rng = SM.create 99 in
  for _ = 1 to 30 do
    let n = 3 + SM.int rng 30 in
    let g = random_weighted rng ~n ~max_len:4 in
    let full = Csr.of_digraph g in
    let u = SM.int rng n in
    (* The G_{-u} snapshot, built from a copy without u's out-edges. *)
    let pruned =
      Bbc_graph.Digraph.of_edges n (List.filter (fun (a, _, _) -> a <> u) (Bbc_graph.Digraph.edges g))
    in
    let skipped = Csr.of_digraph pruned in
    let src = SM.int rng n in
    let a = Array.make n Csr.unreachable in
    let b = Array.make n Csr.unreachable in
    Csr.sssp ~ban:u full (Csr.create_scratch ()) ~src ~dist:a;
    Csr.sssp skipped (Csr.create_scratch ()) ~src ~dist:b;
    Alcotest.(check (array int)) "ban sweep = skip snapshot" b a;
    Alcotest.(check (array int)) "ban sweep = oracle" (Bbc_fuzz.Reference.shortest pruned src) a
  done

(* ------------------------------------------------------------------ *)
(* Landmark estimator.                                                 *)

let test_landmark_exact_at_full_sample () =
  List.iter
    (fun (name, fam) ->
      List.iter
        (fun (n, k, seed) ->
          let inst, config = Gen_instance.streaming_reference fam ~n ~k ~seed in
          let csr = Config.to_csr inst config in
          let exact = Eval.social_cost inst config in
          List.iter
            (fun objective ->
              let exact =
                if objective = Objective.Sum then exact
                else Eval.social_cost ~objective inst config
              in
              let e =
                Approx.social_cost ~objective ~landmarks:(Instance.n inst) ~seed:7 inst
                  csr
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s n=%d: L=n estimate flagged exact" name n)
                true e.exact;
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s n=%d: L=n estimate = Eval.social_cost" name n)
                (float_of_int exact) e.value;
              Alcotest.(check (float 0.0)) "exact bound is 0" 0.0 e.bound)
            [ Objective.Sum; Objective.Max ])
        grid)
    families

(* A general game, lengths 1..3 and weights 0..9: the realized snapshot
   is weighted, so the sweeps take the scalar Dijkstra leg, and every
   cost folds a weight row.  With all lengths 1 the same game sweeps
   through bit-parallel windows instead.  n = 70 spans several
   landmark chunks, so jobs 2 really fans out. *)
let weighted_game rng ~n ~max_len =
  let table f = Array.init n (fun u -> Array.init n (fun v -> if u = v then 0 else f ())) in
  let weight = table (fun () -> SM.int rng 10) in
  let length = table (fun () -> 1 + SM.int rng max_len) in
  let cost = table (fun () -> 1) in
  let inst = Instance.general ~weight ~cost ~length ~budget:(Array.make n 2) () in
  let config =
    Config.of_lists n
      (Array.init n (fun u ->
           List.sort_uniq compare
             (List.filter (( <> ) u) (List.init (SM.int rng 3) (fun _ -> SM.int rng n)))))
  in
  (inst, config)

let test_landmark_exact_weighted () =
  let rng = SM.create 4711 in
  List.iter
    (fun max_len ->
      let inst, config = weighted_game rng ~n:70 ~max_len in
      let csr = Config.to_csr inst config in
      Alcotest.(check bool)
        (Printf.sprintf "max length %d: unit snapshot" max_len)
        (max_len = 1) (Csr.unit_lengths csr);
      List.iter
        (fun objective ->
          let exact = Eval.social_cost ~objective ~jobs:1 inst config in
          List.iter
            (fun jobs ->
              let e = Approx.social_cost ~objective ~jobs ~landmarks:70 ~seed:3 inst csr in
              Alcotest.(check bool) "flagged exact" true e.exact;
              Alcotest.(check (float 0.0))
                (Printf.sprintf "max length %d, jobs %d: L = n = Eval.social_cost" max_len jobs)
                (float_of_int exact) e.value)
            [ 1; 2 ])
        [ Objective.Sum; Objective.Max ])
    [ 3; 1 ]

let test_landmark_bound_contains_exact () =
  (* Statistical, but deterministic given the seeds: for every family,
     size and landmark seed, the exact total must sit inside
     value +- bound.  A two-thirds landmark fraction keeps the sample
     variance honest at these small sizes (fewer landmarks can miss a
     skewed population's outliers entirely); a 25-seed sweep over this
     grid showed zero misses at this fraction. *)
  let misses = ref 0 and checks = ref 0 in
  List.iter
    (fun (_, fam) ->
      List.iter
        (fun (n, k, seed) ->
          let inst, config = Gen_instance.streaming_reference fam ~n ~k ~seed in
          let csr = Config.to_csr inst config in
          let exact = float_of_int (Eval.social_cost inst config) in
          for lseed = 1 to 5 do
            let e =
              Approx.social_cost
                ~landmarks:(max 16 (2 * Instance.n inst / 3))
                ~seed:lseed inst csr
            in
            incr checks;
            if Float.abs (e.value -. exact) > e.bound then incr misses
          done)
        grid)
    families;
  (* 4-sigma with finite-population correction: even one miss across the
     whole grid would be suspicious; allow none. *)
  Alcotest.(check int)
    (Printf.sprintf "misses out of %d" !checks)
    0 !misses

let test_landmark_jobs_invariant () =
  let inst, config = Gen_instance.streaming_reference Random_k ~n:80 ~k:2 ~seed:5 in
  let csr = Config.to_csr inst config in
  let e1 = Approx.social_cost ~jobs:1 ~landmarks:20 ~seed:3 inst csr in
  let e2 = Approx.social_cost ~jobs:4 ~landmarks:20 ~seed:3 inst csr in
  Alcotest.(check (float 0.0)) "value independent of jobs" e1.value e2.value;
  Alcotest.(check int) "landmark count independent of jobs" e1.landmarks e2.landmarks

(* ------------------------------------------------------------------ *)
(* Sampled best response.                                              *)

let test_sampled_br_improving_only () =
  List.iter
    (fun (name, fam) ->
      List.iter
        (fun (n, k, seed) ->
          let inst, config = Gen_instance.streaming_reference fam ~n ~k ~seed in
          let csr = Config.to_csr inst config in
          let rng = SM.create (seed + 17) in
          for u = 0 to min 14 (Instance.n inst - 1) do
            let current = Eval.node_cost inst config u in
            match Best_response.sampled ~csr ~rng ~sample:3 inst config u with
            | None -> ()
            | Some r ->
                if r.cost >= current then
                  Alcotest.failf "%s n=%d node %d: sampled returned %d >= current %d"
                    name n u r.cost current;
                (* The reported cost is exact for the reported strategy. *)
                let adopted = Config.with_strategy config u r.strategy in
                Alcotest.(check int)
                  (Printf.sprintf "%s node %d: reported cost is exact" name u)
                  (Eval.node_cost inst adopted u)
                  r.cost
          done)
        grid)
    families

let test_sampled_br_full_sample_is_exact () =
  let inst, config = Gen_instance.streaming_reference Random_k ~n:24 ~k:2 ~seed:9 in
  let csr = Config.to_csr inst config in
  for u = 0 to 23 do
    let exact = Best_response.exact inst config u in
    let current = Eval.node_cost inst config u in
    let rng = SM.create u in
    match Best_response.sampled ~csr ~rng ~sample:100 inst config u with
    | Some r ->
        Alcotest.(check int) "full-sample cost = exact" exact.cost r.cost;
        Alcotest.(check (list int)) "full-sample strategy = exact" exact.strategy r.strategy
    | None ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d: no improvement means exact >= current" u)
          true (exact.cost >= current)
  done

let test_sampled_dynamics_strict_improvements () =
  (* Replay the walk step by step and verify that every adopted move
     strictly lowered the mover's cost at the moment it moved. *)
  let inst, config = Gen_instance.streaming_reference Random_k ~n:40 ~k:2 ~seed:12 in
  let cur = ref config in
  let outcome =
    Dynamics.run
      ~policy:(Sampled_best_response { sample = 2; seed = 31 })
      ~on_step:(fun s ->
        if s.moved then begin
          let old_cost = Eval.node_cost inst !cur s.node in
          cur := Config.with_strategy !cur s.node s.strategy;
          let new_cost = Eval.node_cost inst !cur s.node in
          Alcotest.(check int)
            (Printf.sprintf "step %d: cost_after consistent" s.index)
            new_cost s.cost_after;
          if new_cost >= old_cost then
            Alcotest.failf "step %d: node %d moved %d -> %d (not improving)" s.index
              s.node old_cost new_cost
        end)
      ~scheduler:Round_robin ~max_rounds:4 inst config
  in
  let final = Dynamics.final_config outcome in
  Alcotest.(check bool) "final profile feasible" true (Config.feasible inst final);
  Alcotest.(check bool) "replay tracked the walk" true (Config.equal !cur final);
  Alcotest.(check bool) "steps recorded" true ((Dynamics.stats outcome).steps > 0)

let suite =
  [
    ("streaming = of_digraph (bit-identical)", `Quick, test_streaming_equals_digraph_route);
    ("streaming = Config.to_csr", `Quick, test_streaming_equals_config_route);
    ("streaming willows = Willows.build", `Quick, test_streaming_willows_matches_module);
    ("streaming random = Generators.random_k_out", `Quick, test_streaming_random_matches_generator);
    ("streaming circulant = Cayley circulant", `Quick, test_streaming_circulant_matches_cayley);
    ("ban sweep = skip snapshot", `Quick, test_ban_equals_skip_snapshot);
    ("landmarks: L = n is exact", `Quick, test_landmark_exact_at_full_sample);
    ("landmarks: L = n exact on weighted games", `Quick, test_landmark_exact_weighted);
    ("landmarks: bound contains exact", `Quick, test_landmark_bound_contains_exact);
    ("landmarks: value independent of jobs", `Quick, test_landmark_jobs_invariant);
    ("sampled BR: improving only", `Quick, test_sampled_br_improving_only);
    ("sampled BR: full sample = exact", `Quick, test_sampled_br_full_sample_is_exact);
    ("sampled dynamics: strict improvements", `Quick, test_sampled_dynamics_strict_improvements);
  ]
