(* Reference oracles; see reference.mli. *)

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
