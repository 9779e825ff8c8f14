(* Reference oracles; see reference.mli. *)

module Digraph = Bbc_graph.Digraph

let unreachable = Bbc_graph.Csr.unreachable

let bfs g src =
  let n = Digraph.n g in
  let dist = Array.make n unreachable in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    let du = dist.(u) in
    Digraph.iter_out g u (fun v _len ->
        if dist.(v) = unreachable then begin
          dist.(v) <- du + 1;
          Queue.add v queue
        end)
  done;
  dist

let dijkstra g src =
  let module Heap = Bbc_graph.Binary_heap in
  let n = Digraph.n g in
  let dist = Array.make n unreachable in
  let heap = Heap.create ~capacity:n () in
  dist.(src) <- 0;
  Heap.push heap 0 src;
  while not (Heap.is_empty heap) do
    let d = Heap.min_priority heap in
    let u = Heap.pop_min heap in
    (* Lazy deletion: skip entries that were superseded. *)
    if d = dist.(u) then
      Digraph.iter_out g u (fun v len ->
          let nd = d + len in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            Heap.push heap nd v
          end)
  done;
  dist

let shortest g src = if Digraph.all_unit_lengths g then bfs g src else dijkstra g src

let obs_pivots = Bbc_obs.counter "apsp.pivots"

let floyd_warshall g =
  let n = Digraph.n g in
  let dist = Array.init n (fun _ -> Array.make n unreachable) in
  for v = 0 to n - 1 do
    dist.(v).(v) <- 0
  done;
  Digraph.iter_edges g (fun u v len -> if len < dist.(u).(v) then dist.(u).(v) <- len);
  Bbc_obs.add obs_pivots n;
  for k = 0 to n - 1 do
    let row_k = dist.(k) in
    for i = 0 to n - 1 do
      let row_i = dist.(i) in
      let dik = row_i.(k) in
      if dik <> unreachable then
        for j = 0 to n - 1 do
          let dkj = row_k.(j) in
          if dkj <> unreachable && dik + dkj < row_i.(j) then row_i.(j) <- dik + dkj
        done
    done
  done;
  dist

(* Distance from u to x once u's strategy gains the link (u,v) of
   length [luv], given the best-known distances [src] and v's G_{-u}
   row [rv]. *)
let merge_into ~src ~dst rv luv =
  Array.blit src 0 dst 0 (Array.length src);
  Array.iteri
    (fun x r -> if r <> unreachable && luv + r < dst.(x) then dst.(x) <- luv + r)
    rv

(* Cost of the strategy extended by (u,v), in one pass over the row it
   would merge to: w(u,x) * d(u,x) summed (Sum) or maximized (Max) over
   x <> u with w(u,x) > 0, unreachable x charged the penalty. *)
let merged_cost ~objective instance u ~src rv luv =
  let m = Bbc.Instance.penalty instance in
  let acc = ref 0 in
  Array.iteri
    (fun x d0 ->
      let w = Bbc.Instance.weight instance u x in
      if x <> u && w > 0 then begin
        let r = rv.(x) in
        let d = if r <> unreachable && luv + r < d0 then luv + r else d0 in
        let c = w * if d = unreachable then m else d in
        match objective with
        | Bbc.Objective.Sum -> acc := !acc + c
        | Bbc.Objective.Max -> if c > !acc then acc := c
      end)
    src;
  !acc

let enumerate ?(objective = Bbc.Objective.Sum) instance config u ~on_subset =
  let n = Bbc.Instance.n instance in
  let g_u = Bbc.Config.to_graph instance (Bbc.Config.with_strategy config u []) in
  let rows = Array.init n (fun v -> if v = u then [||] else shortest g_u v) in
  let candidates = Array.of_list (Bbc.Best_response.candidate_targets instance u) in
  let stop = ref false in
  let base = Array.make n unreachable in
  base.(u) <- 0;
  if on_subset [] (Bbc.Eval.cost_of_distances ~objective instance u base) then stop := true;
  let rec dfs i chosen budget cur =
    for j = i to Array.length candidates - 1 do
      let v = candidates.(j) in
      let c = Bbc.Instance.cost instance u v in
      if (not !stop) && c <= budget then begin
        let luv = Bbc.Instance.length instance u v in
        let chosen' = v :: chosen in
        if on_subset chosen' (merged_cost ~objective instance u ~src:cur rows.(v) luv) then
          stop := true
        else begin
          let cur' = Array.make n unreachable in
          merge_into ~src:cur ~dst:cur' rows.(v) luv;
          dfs (j + 1) chosen' (budget - c) cur'
        end
      end
    done
  in
  dfs 0 [] (Bbc.Instance.budget instance u) base

let local_search ?objective ?(restarts = 3) ?(max_sweeps = 50) rng instance =
  let n = Bbc.Instance.n instance in
  let random_start () =
    let strategies =
      Array.init n (fun u ->
          let choices = Array.of_list (Bbc.Exhaustive.maximal_strategies instance u) in
          if Array.length choices = 0 then []
          else Bbc_prng.Splitmix.choose rng choices)
    in
    Bbc.Config.of_lists n strategies
  in
  let improve_once config cost =
    (* Best single-node replacement by social cost, each candidate
       realized and evaluated from scratch. *)
    let best = ref None in
    for u = 0 to n - 1 do
      List.iter
        (fun s ->
          if s <> Bbc.Config.targets config u then begin
            let config' = Bbc.Config.with_strategy config u s in
            let c = Bbc.Eval.social_cost ?objective instance config' in
            match !best with
            | Some (_, c') when c' <= c -> ()
            | _ -> if c < cost then best := Some (config', c)
          end)
        (Bbc.Exhaustive.all_strategies instance u)
    done;
    !best
  in
  let run_from config =
    let rec go config cost sweeps =
      if sweeps >= max_sweeps then (cost, config)
      else
        match improve_once config cost with
        | Some (config', cost') -> go config' cost' (sweeps + 1)
        | None -> (cost, config)
    in
    go config (Bbc.Eval.social_cost ?objective instance config) 0
  in
  let best = ref (run_from (random_start ())) in
  for _ = 2 to max 1 restarts do
    let candidate = run_from (random_start ()) in
    if fst candidate < fst !best then best := candidate
  done;
  !best

let profiles candidates =
  let n = Array.length candidates in
  let rec go u prefix =
    if u = n then [ Bbc.Config.of_lists n (Array.of_list (List.rev prefix)) ]
    else List.concat_map (fun s -> go (u + 1) (s :: prefix)) candidates.(u)
  in
  go 0 []

let search ?objective ~candidates ~limit ~max_profiles instance =
  let rec go examined found = function
    | _ when List.length found >= limit -> (examined, found, false)
    | [] -> (examined, found, false)
    | _ when examined >= max_profiles -> (examined, found, true)
    | c :: rest ->
        go (examined + 1)
          (if Bbc.Stability.is_stable ?objective instance c then found @ [ c ] else found)
          rest
  in
  let examined, equilibria, over = go 0 [] (profiles candidates) in
  { Bbc.Exhaustive.equilibria; examined; complete = (not over) && List.length equilibria < limit }

let analyze ?objective ~candidates instance =
  let first_by better = function
    | [] -> None
    | x :: xs -> Some (List.fold_left (fun a b -> if better (fst b) (fst a) then b else a) x xs)
  in
  let all = List.map (fun c -> (Bbc.Eval.social_cost ?objective instance c, c)) (profiles candidates) in
  let ne = List.filter (fun (_, c) -> Bbc.Stability.is_stable ?objective instance c) all in
  Option.map
    (fun (optimum, optimal_profile) ->
      {
        Bbc.Social_optimum.optimum;
        optimal_profile;
        best_equilibrium = first_by ( < ) ne;
        worst_equilibrium = first_by ( > ) ne;
        equilibria = List.length ne;
        profiles = List.length all;
      })
    (first_by ( < ) all)

let improvement_arcs ?(objective = Bbc.Objective.Sum) ~best_only ~candidates instance =
  let all = Array.of_list (profiles candidates) in
  let index = Hashtbl.create (Array.length all) in
  Array.iteri (fun i c -> if not (Hashtbl.mem index c) then Hashtbl.add index c i) all;
  let arcs = ref [] in
  Array.iteri
    (fun i c ->
      List.iteri
        (fun u strategies ->
          let cost s = Bbc.Eval.node_cost ~objective instance (Bbc.Config.with_strategy c u s) u in
          let current = cost (Bbc.Config.targets c u) in
          let arc s =
            Option.iter
              (fun j -> arcs := (i, j) :: !arcs)
              (Hashtbl.find_opt index (Bbc.Config.with_strategy c u s))
          in
          if best_only then begin
            (* The first optimum in the plain subset DFS. *)
            let best = ref None in
            enumerate ~objective instance c u ~on_subset:(fun s v ->
                (match !best with Some (_, b) when b <= v -> () | _ -> best := Some (List.sort compare s, v));
                false);
            match !best with
            | Some (s, v) when v < current && List.mem s strategies -> arc s
            | _ -> ()
          end
          else List.iter (fun s -> if cost s < current then arc s) strategies)
        (Array.to_list candidates))
    all;
  List.rev !arcs

let walk ?(objective = Bbc.Objective.Sum) ~policy ~on_step ~scheduler ~max_rounds instance
    config0 =
  let module D = Bbc.Dynamics in
  let module BR = Bbc.Best_response in
  let module C = Bbc.Config in
  let n = Bbc.Instance.n instance in
  let fresh config = C.to_csr instance config in
  let brng =
    match policy with
    | D.Sampled_best_response { seed; _ } -> Some (Bbc_prng.Splitmix.create seed)
    | D.Exact_best_response | D.First_improvement -> None
  in
  let search () =
    match policy with
    | D.Exact_best_response -> BR.Exact
    | D.First_improvement -> BR.First_improving
    | D.Sampled_best_response { sample; _ } -> BR.Sampled { rng = Option.get brng; sample }
  in
  (* One activation: the profile after it, and the step it reports.
     [known] is Max_cost_first's (improving witness, cost) pair. *)
  let activate ?known config index round node =
    let move (r : BR.result) = (C.with_strategy config node r.strategy, true, r.cost) in
    let config', moved, cost_after =
      match (known, policy) with
      | Some (None, cost), _ -> (config, false, cost)
      | Some (Some first, _), D.First_improvement -> move first
      | Some (Some _, _), D.Exact_best_response ->
          move (BR.exact ~objective ~csr:(fresh config) instance config node)
      | _ ->
          let d = BR.decide ~objective ~csr:(fresh config) ~search:(search ()) instance config node in
          if d.best.cost < d.current then move d.best else (config, false, d.current)
    in
    on_step
      { D.index; round; node; moved; strategy = C.targets config' node; cost_after };
    (config', moved)
  in
  (* A repeat is a cycle only under a deterministic scheduler and
     policy: no order draws, no sampled moves. *)
  let deterministic =
    match (scheduler, policy) with
    | D.Random_order _, _ | _, D.Sampled_best_response _ -> false
    | _ -> true
  in
  let seen = ref [] in
  let recurred config =
    if deterministic then List.find_map (fun (c, r) -> if C.equal c config then Some r else None) !seen
    else None
  in
  match scheduler with
  | D.Max_cost_first ->
      let rec go config step deviations =
        let stats = { D.rounds = step; steps = step; deviations } in
        if step >= max_rounds then D.Exhausted (config, stats)
        else
          match recurred config with
          | Some prev -> D.Cycled { config; period = step - prev; stats }
          | None -> (
              seen := (config, step) :: !seen;
              let costs = Array.init n (Bbc.Eval.node_cost ~objective instance config) in
              let improving =
                Array.init n (fun u -> BR.improving ~objective ~csr:(fresh config) instance config u)
              in
              let node = ref (-1) in
              for u = n - 1 downto 0 do
                if Option.is_some improving.(u) && (!node < 0 || costs.(u) >= costs.(!node)) then
                  node := u
              done;
              if !node < 0 then D.Converged (config, stats)
              else
                let config', moved =
                  activate ~known:(improving.(!node), costs.(!node)) config step step !node
                in
                go config' (step + 1) (deviations + if moved then 1 else 0))
      in
      go config0 0 0
  | D.Round_robin | D.Fixed_order _ | D.Random_order _ ->
      let rng =
        match scheduler with
        | D.Random_order seed -> Some (Bbc_prng.Splitmix.create seed)
        | _ -> None
      in
      let rec go config round steps deviations =
        let stats = { D.rounds = round; steps; deviations } in
        if round >= max_rounds then D.Exhausted (config, stats)
        else
          match recurred config with
          | Some prev -> D.Cycled { config; period = round - prev; stats }
          | None ->
              seen := (config, round) :: !seen;
              let order =
                match scheduler with
                | D.Fixed_order order -> order
                | _ ->
                    let order = Array.init n Fun.id in
                    Option.iter (fun rng -> Bbc_prng.Splitmix.shuffle rng order) rng;
                    order
              in
              let config = ref config and changed = ref 0 and steps = ref steps in
              Array.iter
                (fun node ->
                  let config', moved = activate !config !steps round node in
                  if moved then incr changed;
                  incr steps;
                  config := config')
                order;
              if !changed = 0 then
                D.Converged (!config, { D.rounds = round + 1; steps = !steps; deviations })
              else go !config (round + 1) !steps (deviations + !changed)
      in
      go config0 0 0 0
