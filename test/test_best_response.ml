module I = Bbc.Instance
module C = Bbc.Config
module E = Bbc.Eval
module BR = Bbc.Best_response

(* Reference implementation: enumerate all feasible strategies and
   evaluate each by rebuilding the graph.  Quadratically slower than the
   production d_{-u} decomposition; used to cross-check it. *)
let naive_best ?objective instance config u =
  List.fold_left
    (fun (best_s, best_c) s ->
      let c = E.node_cost ?objective instance (C.with_strategy config u s) u in
      if c < best_c then (s, c) else (best_s, best_c))
    ([], max_int)
    (Bbc.Exhaustive.all_strategies instance u)

let test_candidate_targets () =
  let inst = I.uniform ~n:5 ~k:2 in
  Alcotest.(check (list int)) "all but self" [ 0; 1; 3; 4 ] (BR.candidate_targets inst 2)

let test_candidate_targets_costly () =
  let w = Array.make_matrix 3 3 1 in
  let cost = [| [| 0; 9; 1 |]; [| 1; 0; 1 |]; [| 1; 1; 0 |] |] in
  let ones = Array.make_matrix 3 3 1 in
  let inst = I.general ~weight:w ~cost ~length:ones ~budget:[| 2; 2; 2 |] () in
  Alcotest.(check (list int)) "unaffordable excluded" [ 2 ] (BR.candidate_targets inst 0)

let test_exact_on_ring () =
  (* In a (5,1) ring, each node's current strategy is already optimal. *)
  let inst = I.uniform ~n:5 ~k:1 in
  let c = C.of_lists 5 (Array.init 5 (fun v -> [ (v + 1) mod 5 ])) in
  let r = BR.exact inst c 0 in
  Alcotest.(check int) "optimal cost" 10 r.cost;
  Alcotest.(check (list int)) "keeps the ring link" [ 1 ] r.strategy

let test_exact_picks_shortcut () =
  (* Path 0->1->2->3 with k=1: node 0's best response is to link 1
     (linking 2 or 3 disconnects earlier nodes? no weights... linking 1
     reaches 1,2,3 at 1,2,3 = 6; linking 2 reaches 2,3 = 1,2 but 1
     unreachable -> M+3). *)
  let inst = I.uniform ~n:4 ~k:1 in
  let c = C.of_lists 4 [| [ 3 ]; [ 2 ]; [ 3 ]; [] |] in
  let r = BR.exact inst c 0 in
  Alcotest.(check (list int)) "link the chain head" [ 1 ] r.strategy;
  Alcotest.(check int) "cost" 6 r.cost

let test_exact_matches_naive_uniform () =
  let rng = Bbc_prng.Splitmix.create 55 in
  for _ = 1 to 25 do
    let n = 7 in
    let inst = I.uniform ~n ~k:2 in
    let g = Bbc_graph.Generators.random_k_out rng ~n ~k:2 in
    let c = C.of_graph g in
    let u = Bbc_prng.Splitmix.int rng n in
    let fast = BR.exact inst c u in
    let _, slow_cost = naive_best inst c u in
    Alcotest.(check int) "optimal values agree" slow_cost fast.cost
  done

let test_exact_matches_naive_nonuniform () =
  let rng = Bbc_prng.Splitmix.create 56 in
  for _ = 1 to 15 do
    let n = 6 in
    let weight =
      Array.init n (fun u ->
          Array.init n (fun v -> if u = v then 0 else Bbc_prng.Splitmix.int rng 4))
    in
    let inst = I.of_weights ~k:1 weight in
    let g = Bbc_graph.Generators.random_k_out rng ~n ~k:1 in
    let c = C.of_graph g in
    for u = 0 to n - 1 do
      let fast = BR.exact inst c u in
      let _, slow_cost = naive_best inst c u in
      Alcotest.(check int) "optimal values agree" slow_cost fast.cost
    done
  done

let test_exact_matches_naive_max () =
  let rng = Bbc_prng.Splitmix.create 57 in
  for _ = 1 to 15 do
    let n = 6 in
    let inst = I.uniform ~n ~k:2 in
    let g = Bbc_graph.Generators.random_k_out rng ~n ~k:2 in
    let c = C.of_graph g in
    let u = Bbc_prng.Splitmix.int rng n in
    let fast = BR.exact ~objective:Max inst c u in
    let _, slow_cost = naive_best ~objective:Bbc.Objective.Max inst c u in
    Alcotest.(check int) "max objective agrees" slow_cost fast.cost
  done

let test_exact_cost_is_achieved () =
  let rng = Bbc_prng.Splitmix.create 58 in
  for _ = 1 to 20 do
    let n = 8 in
    let inst = I.uniform ~n ~k:2 in
    let c = C.of_graph (Bbc_graph.Generators.random_k_out rng ~n ~k:2) in
    let u = Bbc_prng.Splitmix.int rng n in
    let r = BR.exact inst c u in
    let realized = E.node_cost inst (C.with_strategy c u r.strategy) u in
    Alcotest.(check int) "reported = realized" r.cost realized
  done

let test_improving_none_at_optimum () =
  let inst = I.uniform ~n:4 ~k:3 in
  (* Complete graph: nobody can improve. *)
  let c = C.of_lists 4 (Array.init 4 (fun v -> List.filter (fun x -> x <> v) [ 0; 1; 2; 3 ])) in
  for u = 0 to 3 do
    Alcotest.(check bool) "no improvement" true (BR.improving inst c u = None)
  done

let test_improving_finds_strict () =
  let inst = I.uniform ~n:4 ~k:1 in
  let c = C.of_lists 4 [| []; [ 2 ]; [ 3 ]; [ 1 ] |] in
  match BR.improving inst c 0 with
  | Some r ->
      Alcotest.(check bool) "strictly better" true
        (r.cost < E.node_cost inst c 0)
  | None -> Alcotest.fail "node 0 should improve from the empty strategy"

let test_budget_respected () =
  let w = Array.make_matrix 4 4 1 in
  let cost = [| [| 0; 2; 2; 2 |]; [| 1; 0; 1; 1 |]; [| 1; 1; 0; 1 |]; [| 1; 1; 1; 0 |] |] in
  let ones = Array.make_matrix 4 4 1 in
  let inst = I.general ~weight:w ~cost ~length:ones ~budget:[| 3; 3; 3; 3 |] () in
  let c = C.empty 4 in
  let r = BR.exact inst c 0 in
  (* Node 0 can afford only one link (each costs 2, budget 3). *)
  Alcotest.(check int) "single link" 1 (List.length r.strategy)

let suite =
  [
    Alcotest.test_case "candidate targets" `Quick test_candidate_targets;
    Alcotest.test_case "candidate targets respect cost" `Quick test_candidate_targets_costly;
    Alcotest.test_case "exact on ring" `Quick test_exact_on_ring;
    Alcotest.test_case "exact picks chain head" `Quick test_exact_picks_shortcut;
    Alcotest.test_case "exact = naive (uniform)" `Quick test_exact_matches_naive_uniform;
    Alcotest.test_case "exact = naive (nonuniform)" `Quick test_exact_matches_naive_nonuniform;
    Alcotest.test_case "exact = naive (max)" `Quick test_exact_matches_naive_max;
    Alcotest.test_case "reported cost is realized" `Quick test_exact_cost_is_achieved;
    Alcotest.test_case "improving: none at optimum" `Quick test_improving_none_at_optimum;
    Alcotest.test_case "improving: strict improvement" `Quick test_improving_finds_strict;
    Alcotest.test_case "budget respected" `Quick test_budget_respected;
  ]

(* Uniform k = 1 functional inputs take the closed form: every answer
   must be the reference DFS's. *)
let for_k1_inputs f =
  List.iter
    (fun (name, inst, cfg) ->
      List.iter
        (fun objective ->
          for u = 0 to I.n inst - 1 do
            f (Printf.sprintf "%s %s node %d" name (Bbc.Objective.to_string objective) u)
              objective inst cfg u
          done)
        K1_fixtures.objectives)
    (K1_fixtures.inputs ())

let project (r : BR.result) = (r.strategy, r.cost)

let test_k1_closed_form () =
  for_k1_inputs (fun msg objective inst cfg u ->
      let sequence = ref [] in
      BR.enumerate ~objective inst cfg u ~on_subset:(fun s c ->
          sequence := (List.sort compare s, c) :: !sequence;
          false);
      Alcotest.(check (list (pair (list int) int)))
        (msg ^ ": enumerate")
        (K1_fixtures.sequence ~objective inst cfg u)
        (List.rev !sequence);
      let exact = K1_fixtures.exact ~objective inst cfg u in
      Alcotest.(check (pair (list int) int))
        (msg ^ ": exact") exact
        (project (BR.exact ~objective inst cfg u));
      Alcotest.(check (option (pair (list int) int)))
        (msg ^ ": improving")
        (K1_fixtures.improving ~objective inst cfg u)
        (Option.map project (BR.improving ~objective inst cfg u)))

let test_k1_current_cost () =
  for_k1_inputs (fun msg objective inst cfg u ->
      let expected = E.node_cost ~objective inst cfg u in
      let current ?csr () = (BR.decide ~objective ?csr ~search:Exact inst cfg u).current in
      Alcotest.(check int) (msg ^ ": current") expected (current ());
      Alcotest.(check int) (msg ^ ": current ~csr") expected (current ~csr:(C.to_csr inst cfg) ()))

(* Only node 0's links are longer than 1: G_{-0} on its own is a
   unit-length graph (bit-parallel BFS), but the full snapshot the
   decision sweeps with [~ban:0] is weighted (Dijkstra).  The rows must
   still give the list-graph reference's cost on every subset. *)
let test_weighted_mover_only () =
  let n = 7 in
  let ones = Array.make_matrix n n 1 in
  let length = Array.init n (fun u -> Array.init n (fun v -> if u = 0 then 1 + v else 1)) in
  let inst = I.general ~weight:ones ~cost:ones ~length ~budget:(Array.make n 2) () in
  let cfg =
    C.of_lists n [| [ 3; 5 ]; [ 2 ]; [ 4; 6 ]; [ 1 ]; [ 0 ]; [ 6 ]; [ 5; 1 ] |]
  in
  let full = C.to_csr inst cfg in
  Alcotest.(check bool) "full snapshot is weighted" false (Bbc_graph.Csr.unit_lengths full);
  Alcotest.(check bool) "G_{-0} is unit" true
    (Bbc_graph.Csr.unit_lengths (C.to_csr inst (C.with_strategy cfg 0 [])));
  let sequence f =
    let acc = ref [] in
    f ~on_subset:(fun s c ->
        acc := (s, c) :: !acc;
        false);
    List.rev !acc
  in
  List.iter
    (fun objective ->
      let msg = Bbc.Objective.to_string objective in
      let expected = sequence (Bbc_fuzz.Reference.enumerate ~objective inst cfg 0) in
      let pair = Alcotest.(list (pair (list int) int)) in
      Alcotest.check pair (msg ^ ": enumerate") expected
        (sequence (BR.enumerate ~objective inst cfg 0));
      Alcotest.check pair (msg ^ ": enumerate ~csr") expected
        (sequence (BR.enumerate ~objective ~csr:full inst cfg 0));
      let best_s, best_c =
        List.fold_left
          (fun (bs, bc) (s, c) -> if c < bc then (List.sort compare s, c) else (bs, bc))
          ([], max_int) expected
      in
      let decision ?csr () =
        let d = BR.decide ~objective ?csr ~search:Exact inst cfg 0 in
        (d.best.strategy, d.best.cost, d.current)
      in
      let want = (best_s, best_c, E.node_cost ~objective inst cfg 0) in
      let triple = Alcotest.(triple (list int) int int) in
      Alcotest.check triple (msg ^ ": decide") want (decision ());
      Alcotest.check triple (msg ^ ": decide ~csr") want (decision ~csr:full ()))
    [ Bbc.Objective.Sum; Bbc.Objective.Max ]

(* [Exact] runs a bounded search where the budget buys three or more of
   the cheapest links.  It must report what the plain DFS does: the
   first minimum of [enumerate]'s sequence, and [u]'s cost from
   [Eval].  Small weights and lengths make many subsets tie; costs of 1
   or 2 against budgets up to 5 put most nodes inside the rule and some
   outside it, and random target sets (over budget included) exercise
   the current cost. *)
let test_bounded_exact_matches_dfs () =
  let rng = Bbc_prng.Splitmix.create 3131 in
  let int lo hi = lo + Bbc_prng.Splitmix.int rng (hi - lo + 1) in
  let bounded = ref 0 in
  for _ = 1 to 60 do
    let n = int 3 9 in
    let table lo hi = Array.init n (fun u -> Array.init n (fun v -> if u = v then 0 else int lo hi)) in
    let weight = table 0 2 and cost = table 1 2 and length = table 1 2 in
    let budget = Array.init n (fun _ -> int 0 5) in
    let inst = I.general ~weight ~cost ~length ~budget () in
    let cfg =
      C.of_lists n
        (Array.init n (fun u ->
             List.sort_uniq compare
               (List.filter (( <> ) u) (List.init (int 0 3) (fun _ -> int 0 (n - 1))))))
    in
    let csr = C.to_csr inst cfg in
    for u = 0 to n - 1 do
      let cands = BR.candidate_targets inst u in
      if cands <> [] && budget.(u) >= 3 * List.fold_left (fun m v -> min m cost.(u).(v)) max_int cands
      then incr bounded;
      List.iter
        (fun objective ->
          let first_min = ref ([], max_int) in
          BR.enumerate ~objective inst cfg u ~on_subset:(fun s c ->
              if c < snd !first_min then first_min := (List.sort compare s, c);
              false);
          let want = (fst !first_min, snd !first_min, E.node_cost ~objective inst cfg u) in
          List.iter
            (fun (provider, csr) ->
              let d = BR.decide ~objective ?csr ~search:Exact inst cfg u in
              Alcotest.(check (triple (list int) int int))
                (Printf.sprintf "%s node %d budget %d (%s)" (Bbc.Objective.to_string objective) u
                   budget.(u) provider)
                want
                (d.best.strategy, d.best.cost, d.current))
            [ ("scratch", None); ("csr", Some csr) ])
        [ Bbc.Objective.Sum; Bbc.Objective.Max ]
    done
  done;
  Alcotest.(check bool) "some decisions take the bounded search" true (!bounded > 50)

(* Decisions with one source and with none.  Node 0 can afford only
   node 3 (budget 1), or nothing (budget 0); with budget 0 its one
   current target is over budget, a source that is no candidate.  Both
   searches must give the exhaustive reference's answer, and the
   current cost [Eval]'s. *)
let test_one_and_zero_sources () =
  let n = 5 in
  let weight = Array.init n (fun u -> Array.init n (fun v -> if u = v || (u, v) = (0, 4) then 0 else 1)) in
  let cost = Array.init n (fun u -> Array.init n (fun v -> if u = 0 && v <> 3 then 2 else 1)) in
  let length = Array.init n (fun u -> Array.init n (fun v -> if (u + v) mod 3 = 0 then 2 else 1)) in
  let rest = [ [ 2 ]; [ 3; 4 ]; [ 4 ]; [ 0; 1 ] ] in
  List.iter
    (fun (name, b0, targets, ncand) ->
      let budget = Array.init n (fun u -> if u = 0 then b0 else 2) in
      let inst = I.general ~weight ~cost ~length ~budget () in
      let cfg = C.of_lists n (Array.of_list (targets :: rest)) in
      Alcotest.(check int) (name ^ ": candidates") ncand (List.length (BR.candidate_targets inst 0));
      List.iter
        (fun objective ->
          let want =
            let s, c = naive_best ~objective inst cfg 0 in
            (s, c, E.node_cost ~objective inst cfg 0)
          in
          List.iter
            (fun (search, sname) ->
              List.iter
                (fun csr ->
                  let d = BR.decide ~objective ?csr ~search inst cfg 0 in
                  Alcotest.(check (triple (list int) int int))
                    (Printf.sprintf "%s %s %s%s" name (Bbc.Objective.to_string objective) sname
                       (if csr = None then "" else " ~csr"))
                    want
                    (d.best.strategy, d.best.cost, d.current))
                [ None; Some (C.to_csr inst cfg) ])
            [ (BR.Exact, "exact"); (BR.First_improving, "first-improving") ])
        [ Bbc.Objective.Sum; Bbc.Objective.Max ])
    [
      ("one candidate, no target", 1, [], 1);
      ("one candidate, its target", 1, [ 3 ], 1);
      ("budget 0, no target", 0, [], 0);
      ("budget 0, target over budget", 0, [ 1 ], 0);
    ]

(* Every row a decision takes from this domain's pool goes back clean,
   also when [on_subset] raises mid-enumeration. *)
let test_pool_discipline () =
  let module W = Bbc_graph.Workspace in
  let n = 9 in
  let inst = I.uniform ~n ~k:3 in
  let cfg = C.of_graph (Bbc_graph.Generators.random_k_out (Bbc_prng.Splitmix.create 77) ~n ~k:2) in
  let ws = W.get () in
  List.iter
    (fun search ->
      ignore (BR.decide ~search inst cfg 0);
      let pooled = W.pooled ws in
      ignore (BR.decide ~search inst cfg 0);
      Alcotest.(check int) "repeat decision" pooled (W.pooled ws))
    [ BR.Exact; BR.First_improving ];
  let pooled = W.pooled ws in
  let seen = ref 0 in
  (match
     BR.enumerate inst cfg 0 ~on_subset:(fun _ _ ->
         incr seen;
         if !seen = 5 then raise Exit;
         false)
   with
  | () -> Alcotest.fail "on_subset did not raise"
  | exception Exit -> ());
  Alcotest.(check int) "raising enumeration" pooled (W.pooled ws);
  let row = W.acquire ws n in
  Alcotest.(check bool) "acquired row is clean" true
    (Array.for_all (( = ) Bbc_graph.Csr.unreachable) row);
  W.release_clean ws row

(* A scan's shared snapshot is built only when some decision reads
   rows: never on uniform k = 1 functional profiles. *)
let test_snapshot_shape () =
  let ring = C.of_lists 5 (Array.init 5 (fun v -> [ (v + 1) mod 5 ])) in
  Alcotest.(check bool) "k=1 ring: none" true (BR.snapshot (I.uniform ~n:5 ~k:1) ring = None);
  Alcotest.(check bool) "k=2 game: built" true (BR.snapshot (I.uniform ~n:5 ~k:2) ring <> None);
  let two = C.with_strategy ring 0 [ 1; 2 ] in
  Alcotest.(check bool) "non-functional profile: built" true
    (BR.snapshot (I.uniform ~n:5 ~k:1) two <> None)

(* The row kernel (lib/core/row_kernel.c) behind [score] and
   [min_into], bound here directly: the entry points the search calls
   (the AVX2 build where the CPU has it) and the portable build, each
   against a plain fold over the first [k] entries.  Bytecode has only
   the dispatching entry points, so there both bindings reach them. *)
external score_sum : int array -> int array -> (int[@untagged]) -> (int[@untagged])
  = "bbc_row_score_sum_byte" "bbc_row_score_sum"
[@@noalloc]

external score_max : int array -> int array -> (int[@untagged]) -> (int[@untagged])
  = "bbc_row_score_max_byte" "bbc_row_score_max"
[@@noalloc]

external min_into : int array -> int array -> int array -> (int[@untagged]) -> unit
  = "bbc_row_min_into_byte" "bbc_row_min_into"
[@@noalloc]

external score_sum_portable : int array -> int array -> (int[@untagged]) -> (int[@untagged])
  = "bbc_row_score_sum_byte" "bbc_row_score_sum_portable"
[@@noalloc]

external score_max_portable : int array -> int array -> (int[@untagged]) -> (int[@untagged])
  = "bbc_row_score_max_byte" "bbc_row_score_max_portable"
[@@noalloc]

external min_into_portable : int array -> int array -> int array -> (int[@untagged]) -> unit
  = "bbc_row_min_into_byte" "bbc_row_min_into_portable"
[@@noalloc]

(* Rows as the search holds them: pooled rows longer than [k], entries
   in [0, top], where [top] is an entry at the instance bound of
   DESIGN.md section 18.3 for n = k + 1 columns and sources, or a small
   value.  Past [k] every row holds a sentinel no kernel may read or
   write. *)
let test_row_kernel () =
  let rng = Bbc_prng.Splitmix.create 2008 in
  let sentinel = -7 in
  List.iter
    (fun k ->
      let n = max 2 (k + 1) in
      (* The largest max_weight * M with n * (n - 1) * max_weight * M < 2^62. *)
      let bound = ((1 lsl 62) - 1) / (n * (n - 1)) in
      List.iter
        (fun top ->
          for _ = 1 to 20 do
            let row () =
              Array.init (k + 3) (fun i ->
                  if i >= k then sentinel
                  else
                    match Bbc_prng.Splitmix.int rng 4 with
                    | 0 -> top
                    | 1 -> 0
                    | _ -> Bbc_prng.Splitmix.int rng (top + 1))
            in
            let cur = row () and f = row () in
            let mins = Array.init k (fun i -> Int.min cur.(i) f.(i)) in
            let sum = Array.fold_left ( + ) 0 mins and max = Array.fold_left Int.max 0 mins in
            let name what = Printf.sprintf "%s k=%d top=%d" what k top in
            Alcotest.(check int) (name "sum") sum (score_sum cur f k);
            Alcotest.(check int) (name "portable sum") sum (score_sum_portable cur f k);
            Alcotest.(check int) (name "max") max (score_max cur f k);
            Alcotest.(check int) (name "portable max") max (score_max_portable cur f k);
            let want = Array.append mins [| sentinel; sentinel; sentinel |] in
            List.iter
              (fun (what, min_into) ->
                let dst = Array.make (k + 3) sentinel in
                min_into dst cur f k;
                Alcotest.(check (array int)) (name what) want dst;
                let alias = Array.copy cur in
                min_into alias alias f k;
                Alcotest.(check (array int)) (name (what ^ " dst == cur")) want alias)
              [ ("min_into", min_into); ("portable min_into", min_into_portable) ]
          done)
        [ bound; 9 ])
    [ 0; 1; 3; 4; 5; 23; 70 ]

let suite =
  suite
  @ [
      Alcotest.test_case "k=1 closed form = reference" `Quick test_k1_closed_form;
      Alcotest.test_case "k=1 current cost = Eval" `Quick test_k1_current_cost;
      Alcotest.test_case "weighted mover: ban sweep = reference" `Quick test_weighted_mover_only;
      Alcotest.test_case "snapshot only off the closed form" `Quick test_snapshot_shape;
      Alcotest.test_case "bounded exact = plain DFS" `Quick test_bounded_exact_matches_dfs;
      Alcotest.test_case "one-source and zero-source decisions" `Quick test_one_and_zero_sources;
      Alcotest.test_case "decisions return their rows to the pool" `Quick test_pool_discipline;
      Alcotest.test_case "row kernel = plain fold" `Quick test_row_kernel;
    ]
