(* The uniform k = 1 whole-profile pass (Functional.scan) and the scans
   built on it, against per-node oracles: brute-force walks in G_{-u},
   batched sweeps, and one best-response decision per node. *)

module I = Bbc.Instance
module C = Bbc.Config
module F = Bbc.Functional
module S = Bbc.Stability
module SM = Bbc_prng.Splitmix

(* T_v in G_{-u} by walking with a visited set. *)
let brute_count succ u v =
  let seen = Array.make (Array.length succ) false in
  let rec go x acc =
    if x < 0 || x = u || seen.(x) then acc
    else begin
      seen.(x) <- true;
      go succ.(x) (acc + 1)
    end
  in
  go v 0

let brute_scan succ =
  let n = Array.length succ in
  let best =
    Array.init n (fun u ->
        List.fold_left max 0
          (List.filter_map (fun v -> if v = u then None else Some (brute_count succ u v)) (List.init n Fun.id)))
  in
  let current = Array.init n (fun u -> if succ.(u) < 0 then 0 else brute_count succ u succ.(u)) in
  (best, current)

let succ_of lists = Option.get (C.successors (C.of_lists (Array.length lists) lists))

(* Shaped profiles: every n = 2 profile, 2-cycles, several cycles with
   trees hanging off them, sinks with trees, and a ring+path. *)
let shaped () =
  let of_succ a = Array.map (fun v -> if v < 0 then [] else [ v ]) a in
  [
    ("n=2 empty", [| []; [] |]);
    ("n=2 one link", [| [ 1 ]; [] |]);
    ("n=2 sink first", [| []; [ 0 ] |]);
    ("n=2 cycle", [| [ 1 ]; [ 0 ] |]);
    ("two 2-cycles", of_succ [| 1; 0; 3; 2 |]);
    (* A 3-cycle 0-1-2 with trees 3->0, 4->3, 5->3, 6->1; a 2-cycle 7-8
       with 9->8, 10->9; a sink 11 with 12->11, 13->12, 14->11. *)
    ("cycles and trees", of_succ [| 1; 2; 0; 0; 3; 3; 1; 8; 7; 8; 9; -1; 11; 12; 11 |]);
    (* Deep trees on both ends of a 4-cycle. *)
    ("uneven hangers", of_succ [| 1; 2; 3; 0; 0; 4; 5; 6; 2; 8; -1 |]);
    ("sinks only", of_succ [| -1; 0; 1; 1; -1; 4 |]);
    ("ring+path", C.(Array.init 12 (targets (snd (Bbc.Constructions.ring_with_path ~ring:8 ~path:4)))));
  ]
  |> List.map (fun (name, lists) -> (name, succ_of lists))

(* Random profiles, n = 2 .. 26: each node buys one link or, one time
   in four, nothing. *)
let random_succs () =
  let rng = SM.create 30 in
  List.init 300 (fun i ->
      let n = 2 + (i mod 25) in
      ( Printf.sprintf "random %d (n=%d)" i n,
        Array.init n (fun u ->
            if SM.int rng 4 = 0 then -1
            else
              let v = SM.int rng (n - 1) in
              if v >= u then v + 1 else v) ))

let all_succs () = shaped () @ random_succs ()

let test_scan_vs_brute () =
  List.iter
    (fun (name, succ) ->
      let best, current = brute_scan succ in
      let s = F.scan succ in
      Alcotest.(check (array int)) (name ^ ": B") best s.best;
      Alcotest.(check (array int)) (name ^ ": C") current s.current;
      Array.iteri
        (fun u _ ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s: walk_counts %d" name u)
            (Array.init (Array.length succ) (fun v -> if v = u then 0 else brute_count succ u v))
            (F.walk_counts succ u))
        succ)
    (all_succs ())

let profile succ = C.of_lists (Array.length succ) (Array.map (fun v -> if v < 0 then [] else [ v ]) succ)

(* Instances for a successor array: the default penalty and a custom
   one. *)
let instances succ =
  let n = Array.length succ in
  let inst = I.uniform ~n ~k:1 in
  [ ("", inst); (" custom M", I.with_penalty inst ((3 * n) + 1)) ]

let for_inputs f =
  List.iter
    (fun (name, succ) ->
      List.iter
        (fun (suffix, inst) ->
          List.iter
            (fun objective ->
              f (Printf.sprintf "%s%s %s" name suffix (Bbc.Objective.to_string objective)) objective inst
                (profile succ))
            [ Bbc.Objective.Sum; Bbc.Objective.Max ])
        (instances succ))
    (all_succs ())

let test_costs_vs_sweeps () =
  for_inputs (fun msg objective inst cfg ->
      let n = I.n inst in
      let swept = Array.make n 0 in
      Bbc.Eval.batched_costs ~objective ~width:Bbc_graph.Csr.batch_width inst (C.to_csr inst cfg)
        (Array.init n Fun.id)
        ~emit:(fun u c -> swept.(u) <- c)
        0 n;
      Alcotest.(check (array int)) (msg ^ ": all_costs") swept (Bbc.Eval.all_costs ~objective inst cfg);
      Alcotest.(check int) (msg ^ ": social_cost") (Array.fold_left ( + ) 0 swept)
        (Bbc.Eval.social_cost ~objective inst cfg))

(* Verdicts and the reported deviation against one first-improving
   decision per node, at jobs 1 and 2. *)
let test_scans_vs_decisions () =
  for_inputs (fun msg objective inst cfg ->
      let n = I.n inst in
      let decisions =
        Array.init n (Bbc.Best_response.decide ~objective ~search:First_improving inst cfg)
      in
      let unstable =
        List.filter
          (fun u -> decisions.(u).best.cost < decisions.(u).current)
          (List.init n Fun.id)
      in
      let deviation =
        match unstable with
        | [] -> None
        | u :: _ -> Some (u, decisions.(u).current, (decisions.(u).best.strategy, decisions.(u).best.cost))
      in
      List.iter
        (fun jobs ->
          let msg = Printf.sprintf "%s jobs %d" msg jobs in
          Alcotest.(check bool) (msg ^ ": is_stable") (unstable = []) (S.is_stable ~objective ~jobs inst cfg);
          Alcotest.(check (option (triple int int (pair (list int) int))))
            (msg ^ ": find_deviation") deviation
            (Option.map
               (fun (d : S.deviation) -> (d.node, d.current_cost, (d.better.strategy, d.better.cost)))
               (S.find_deviation ~objective ~jobs inst cfg)))
        [ 1; 2 ])

let suite =
  [
    Alcotest.test_case "scan = brute-force G_{-u} walks" `Quick test_scan_vs_brute;
    Alcotest.test_case "closed-form costs = batched sweeps" `Quick test_costs_vs_sweeps;
    Alcotest.test_case "stability scans = per-node decisions" `Quick test_scans_vs_decisions;
  ]
