(* E11 — Section 5 (BBC-max): Theorem 7 (no pure NE with non-uniform
   preferences), Theorem 8 (PoA Omega(n/(k log_k n)) via the Figure-6
   construction), Theorem 9 (PoS Theta(1): the l = 0 willows are stable
   under Max too). *)

(* Theorem 7 status.  Unlike the Sum objective — where a 5-node no-NE
   core exists and is certified in E1 — systematic machine search has
   not produced a small BBC-max game without a pure NE (see
   EXPERIMENTS.md for the tally: complete enumeration of every (4,1)
   game with small weights, tens of thousands of exhaustively-checked
   random games at n <= 6, and millions of structured instances at
   n <= 16 with provably-forced relay nodes).  That evidence is
   consistent with the theorem's n >= 16 hypothesis being essential and
   its Figure-5 witness relying on structure the paper's text does not
   pin down.  We therefore report measured equilibrium-existence rates
   instead of a fabricated gadget. *)
let theorem7_rows ~quick =
  let rng = Bbc_prng.Splitmix.create 2468 in
  let game n =
    Bbc.Instance.of_weights ~k:1
      (Array.init n (fun u ->
           Array.init n (fun v ->
               if u = v then 0
               else if Bbc_prng.Splitmix.float rng 1.0 < 0.55 then 0
               else 1 + Bbc_prng.Splitmix.int rng 3)))
  in
  let rows = [ (4, if quick then 300 else 2000); (5, if quick then 100 else 500) ] in
  List.map
    (fun ((n, tries), verdicts) ->
      let count v = Array.fold_left (fun c w -> if w = Some v then c + 1 else c) 0 verdicts in
      [
        Printf.sprintf "random sparse n=%d (full space)" n;
        Table.cell_int tries;
        Table.cell_int (count true);
        Table.cell_int (count false);
      ])
    (Trials.run
       (List.map (fun ((n, tries) as row) -> (row, Array.init tries (fun _ -> game n))) rows)
       (fun _ g -> Bbc.Exhaustive.has_equilibrium ~objective:Bbc.Objective.Max g))

let theorem8_rows ~quick =
  let cases = if quick then [ (2, 6); (3, 4); (3, 8); (4, 5) ] else [ (2, 6); (2, 12); (3, 4); (3, 8); (3, 12); (4, 5); (4, 8) ] in
  List.map
    (fun (k, l) ->
      match Bbc.Constructions.max_anarchy_equilibrium ~k ~l with
      | Some (instance, config) ->
          let n = Bbc.Instance.n instance in
          let social = Bbc.Eval.social_cost ~objective:Max instance config in
          let lb = Bbc.Metrics.max_social_cost_lower_bound ~n ~k in
          let theory =
            float_of_int n
            /. (float_of_int k *. float_of_int (max 1 (Bbc.Metrics.floor_log ~base:k n)))
          in
          [
            Printf.sprintf "fig-6 (k=%d, l=%d)" k l;
            Table.cell_int n;
            "yes";
            Table.cell_int social;
            Table.cell_int lb;
            Table.cell_float (float_of_int social /. float_of_int lb);
            Table.cell_float theory;
          ]
      | None ->
          [ Printf.sprintf "fig-6 (k=%d, l=%d)" k l; "-"; "no"; "-"; "-"; "-"; "-" ])
    cases

let theorem9_rows ~quick =
  let params =
    if quick then Bbc.Willows.[ { k = 2; h = 2; l = 0 }; { k = 2; h = 3; l = 0 } ]
    else
      Bbc.Willows.[ { k = 2; h = 2; l = 0 }; { k = 2; h = 3; l = 0 }; { k = 3; h = 2; l = 0 }; { k = 2; h = 4; l = 0 } ]
  in
  List.map
    (fun p ->
      let open Bbc.Willows in
      let instance, config = build p in
      let n = size p in
      let stable = Bbc.Stability.is_stable ~objective:Max instance config in
      let social = Bbc.Eval.social_cost ~objective:Max instance config in
      let lb = Bbc.Metrics.max_social_cost_lower_bound ~n ~k:p.k in
      [
        Format.asprintf "%a" pp_params p;
        Table.cell_int n;
        Table.cell_bool stable;
        Table.cell_int social;
        Table.cell_int lb;
        Table.cell_float (float_of_int social /. float_of_int lb);
      ])
    params

let run ?(quick = true) fmt =
  Table.section fmt "E11  Section 5: the BBC-max variant (Theorems 7, 8, 9)";
  let t7 =
    Table.create
      ~title:"Theorem 7: searching for max-objective games without pure NE"
      ~claim:
        "Thm 7: for n >= 16, k >= 1 some non-uniform BBC-max game has no \
         pure NE.  Measured: equilibria exist in every one of millions of \
         small instances searched (see EXPERIMENTS.md) — the max \
         objective resists the phenomenon far more than Sum, where a \
         5-node no-NE core exists (E1)"
      ~columns:[ "workload"; "games"; "with pure NE"; "without" ]
  in
  Table.add_rows t7 (theorem7_rows ~quick);
  Table.render fmt t7;
  Table.note fmt
    "every game above is checked by complete enumeration of its full \
     profile space; 'without' has never been hit";
  let t8 =
    Table.create ~title:"Theorem 8 / Figure 6: high-anarchy Max equilibria"
      ~claim:
        "Thm 8: the PoA of uniform BBC-max games is Omega(n/(k log_k n)); \
         the witness is a verified NE of social max-cost Omega(n^2/k)"
      ~columns:[ "construction"; "n"; "stable"; "social"; "LB"; "ratio"; "theory n/(k log n)" ]
  in
  Table.add_rows t8 (theorem8_rows ~quick);
  Table.render fmt t8;
  let t9 =
    Table.create ~title:"Theorem 9: price of stability Theta(1) under Max"
      ~claim:
        "Thm 9: the l = 0 willows are stable under the max objective and \
         within a constant of the optimum"
      ~columns:[ "params"; "n"; "stable(Max)"; "social"; "LB"; "ratio" ]
  in
  Table.add_rows t9 (theorem9_rows ~quick);
  Table.render fmt t9
