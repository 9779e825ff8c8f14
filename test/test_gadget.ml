module G = Bbc.Gadget
module I = Bbc.Instance

let test_core_shape () =
  let core = G.core () in
  Alcotest.(check int) "core size" G.core_size (I.n core);
  Alcotest.(check bool) "uniform costs carried as general" false (I.uniform_k core <> None);
  for u = 0 to G.core_size - 1 do
    Alcotest.(check int) "budget 1" 1 (I.budget core u);
    for v = 0 to G.core_size - 1 do
      if u <> v then begin
        Alcotest.(check int) "unit cost" 1 (I.cost core u v);
        Alcotest.(check int) "unit length" 1 (I.length core u v)
      end
    done
  done

let test_core_has_no_ne_sum () =
  (* Theorem 1's phenomenon, certified unconditionally: the full profile
     space of the 5-node core contains no pure NE. *)
  Alcotest.(check bool) "no pure NE (Sum)" true (G.verify_core_has_no_ne ())

let test_no_nash_padding_shape () =
  let g = G.no_nash ~n:11 in
  Alcotest.(check int) "n = 11" 11 (I.n g);
  Alcotest.(check bool) "padding structure sound" true (G.padding_is_sound g)

let test_no_nash_minimum_size () =
  Alcotest.(check bool) "too-small padding rejected" true
    (try
       ignore (G.no_nash ~n:6);
       false
     with Invalid_argument _ -> true)

let test_padded_nodes_forced () =
  (* Each padded node's unique positive preference is its cycle
     successor, making the direct link its strict best response against
     any profile; spot-check against random profiles. *)
  let g = G.no_nash ~n:9 in
  let rng = Bbc_prng.Splitmix.create 8 in
  for _ = 1 to 20 do
    let strategies =
      Array.init 9 (fun u ->
          let t = Bbc_prng.Splitmix.int rng 8 in
          [ (if t >= u then t + 1 else t) ])
    in
    let config = Bbc.Config.of_lists 9 strategies in
    for p = G.core_size to 8 do
      let succ = if p + 1 >= 9 then G.core_size else p + 1 in
      let best = Bbc.Best_response.exact g config p in
      Alcotest.(check (list int)) "forced successor link" [ succ ] best.strategy
    done
  done

let test_padded_game_dynamics_never_settle () =
  (* Best-response dynamics on the padded 11-node game must cycle (they
     cannot converge, as no NE exists). *)
  let g = G.no_nash ~n:11 in
  let config = Bbc.Config.empty 11 in
  match Bbc.Dynamics.run ~scheduler:Round_robin ~max_rounds:500 g config with
  | Converged _ -> Alcotest.fail "converged to a NE of a no-NE game!"
  | Cycled _ -> ()
  | Exhausted _ -> Alcotest.fail "expected cycle detection within 500 rounds"

let test_core_restricted_search_agrees () =
  (* Searching only maximal strategies must also find nothing (existence
     of a NE among maximal profiles would contradict the full search). *)
  let core = G.core () in
  let candidates = Array.init G.core_size (Bbc.Exhaustive.maximal_strategies core) in
  match Bbc.Exhaustive.has_equilibrium ~candidates core with
  | Some b -> Alcotest.(check bool) "no NE in maximal profiles" false b
  | None -> Alcotest.fail "search aborted"

let suite =
  [
    Alcotest.test_case "core shape" `Quick test_core_shape;
    Alcotest.test_case "core has no NE (exhaustive)" `Slow test_core_has_no_ne_sum;
    Alcotest.test_case "padding shape" `Quick test_no_nash_padding_shape;
    Alcotest.test_case "padding minimum size" `Quick test_no_nash_minimum_size;
    Alcotest.test_case "padded nodes forced" `Quick test_padded_nodes_forced;
    Alcotest.test_case "padded game never settles" `Quick test_padded_game_dynamics_never_settle;
    Alcotest.test_case "maximal-strategy search agrees" `Quick test_core_restricted_search_agrees;
  ]
