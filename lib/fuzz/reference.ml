(* Reference oracles; see reference.mli. *)

module Paths = Bbc_graph.Paths

(* Distance from u to x once u's strategy gains the link (u,v) of
   length [luv], given the best-known distances [src] and v's G_{-u}
   row [rv]. *)
let merge_into ~src ~dst rv luv =
  Array.blit src 0 dst 0 (Array.length src);
  Array.iteri
    (fun x r -> if r <> Paths.unreachable && luv + r < dst.(x) then dst.(x) <- luv + r)
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
        let d = if r <> Paths.unreachable && luv + r < d0 then luv + r else d0 in
        let c = w * if d = Paths.unreachable then m else d in
        match objective with
        | Bbc.Objective.Sum -> acc := !acc + c
        | Bbc.Objective.Max -> if c > !acc then acc := c
      end)
    src;
  !acc

let enumerate ?(objective = Bbc.Objective.Sum) instance config u ~on_subset =
  let n = Bbc.Instance.n instance in
  let g_u = Bbc.Config.to_graph instance (Bbc.Config.with_strategy config u []) in
  let rows = Array.init n (fun v -> if v = u then [||] else Paths.shortest g_u v) in
  let candidates = Array.of_list (Bbc.Best_response.candidate_targets instance u) in
  let stop = ref false in
  let base = Array.make n Paths.unreachable in
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
          let cur' = Array.make n Paths.unreachable in
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
