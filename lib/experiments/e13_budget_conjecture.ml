(* E13 (the paper's open conjecture, footnote 2): "we conjecture that
   pure Nash equilibria do exist in all cases where only the budgets are
   non-uniform."

   We test it computationally: games with uniform weights, costs and
   lengths but random non-uniform budgets, (a) exhaustively at small n
   (complete profile spaces), (b) by best-response dynamics at larger n
   (convergence to a verified NE).  A single counterexample would refute
   the conjecture; none has appeared. *)

module SM = Bbc_prng.Splitmix

let random_budget_instance rng ~n ~max_budget =
  let weight = Array.init n (fun u -> Array.init n (fun v -> if u = v then 0 else 1)) in
  let ones = Array.init n (fun _ -> Array.make n 1) in
  let budget = Array.init n (fun _ -> SM.int rng (max_budget + 1)) in
  Bbc.Instance.general ~weight ~cost:ones ~length:ones ~budget ()

(* One trial's verdict: a pure NE found (by complete enumeration, or a
   walk that converged to a verified NE), certified absent, or neither
   (an aborted search, a walk that did not converge).  Reads no rng. *)
let trial ~objective ~exhaustive instance =
  if exhaustive then
    match Bbc.Exhaustive.has_equilibrium ~objective ~max_profiles:2_000_000 instance with
    | Some true -> `Ne
    | Some false -> `No_ne
    | None -> `Other
  else
    let n = Bbc.Instance.n instance in
    match
      Bbc.Dynamics.run ~objective ~scheduler:Bbc.Dynamics.Round_robin ~max_rounds:(8 * n)
        instance (Bbc.Config.empty n)
    with
    | Bbc.Dynamics.Converged (c, _) when Bbc.Stability.is_stable ~objective instance c -> `Ne
    | _ -> `Other

let run ?(quick = true) fmt =
  Table.section fmt "E13  Footnote-2 conjecture: budget-only non-uniformity keeps pure NE";
  let t =
    Table.create ~title:"Random games, non-uniform only in budgets"
      ~claim:
        "paper (footnote 2): 'we conjecture that pure NE do exist in all \
         cases where only the budgets are non-uniform'"
      ~columns:[ "workload"; "trials"; "NE found"; "no NE"; "other" ]
  in
  let rng = SM.create 1313 in
  let sum = Bbc.Objective.Sum and max_o = Bbc.Objective.Max in
  let rows =
    [
      (true, sum, 4, 3, if quick then 40 else 150);
      (true, sum, 5, 2, if quick then 10 else 40);
      (true, max_o, 4, 3, if quick then 40 else 150);
      (false, sum, 12, 4, if quick then 15 else 50);
      (false, sum, 20, 5, if quick then 5 else 20);
    ]
  in
  List.iter
    (fun ((exhaustive, objective, n, max_budget, trials), verdicts) ->
      let count v = Array.fold_left (fun c w -> if w = v then c + 1 else c) 0 verdicts in
      Table.add_row t
        [
          Printf.sprintf "%s n=%d b<=%d (%s)"
            (if exhaustive then "exhaustive" else "dynamics")
            n max_budget (Bbc.Objective.to_string objective);
          Table.cell_int trials;
          Table.cell_int (count `Ne);
          (if exhaustive then Table.cell_int (count `No_ne) else "-");
          Table.cell_int (count `Other);
        ])
    (Trials.run
       (List.map
          (fun ((_, _, n, max_budget, trials) as row) ->
            (row, Array.init trials (fun _ -> random_budget_instance rng ~n ~max_budget)))
          rows)
       (fun (exhaustive, objective, _, _, _) -> trial ~objective ~exhaustive));
  Table.render fmt t;
  Table.note fmt
    "a 'no NE' entry above 0 would refute the conjecture; 'other' counts \
     non-converged dynamics runs (not counterexamples — walks may cycle \
     even when equilibria exist)"
