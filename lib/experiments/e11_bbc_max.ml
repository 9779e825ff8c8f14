(* E11 — Section 5 (BBC-max): Theorem 7 (no pure NE with non-uniform
   preferences), Theorem 8 (PoA Omega(n/(k log_k n)) via the Figure-6
   construction), Theorem 9 (PoS Theta(1): the l = 0 willows are stable
   under Max too). *)

(* Theorem 7 status.  Unlike the Sum objective — where a 5-node no-NE
   core exists and is certified in E1 — systematic machine search has
   not produced a small BBC-max game without a pure NE.  Quick mode
   samples random sparse games at n = 4 and 5; [--full] adds the whole
   search as rows of the same table: every (4,1) game with weights in
   {0,1,2} under Max and under Sum, random sparse games at n = 6, and
   seeded families at n <= 16 whose single-preference nodes are pinned
   ({!Bbc.Exhaustive.forced_candidates}), up to the 8,820-variant
   Figure-5 grid.  That evidence is consistent with the theorem's
   n >= 16 hypothesis being essential and its Figure-5 witness relying
   on structure the paper's text does not pin down.  We therefore
   report measured equilibrium-existence rates instead of a fabricated
   gadget. *)

module SM = Bbc_prng.Splitmix

(* The [t]-th node other than [u]. *)
let skip u t = if t >= u then t + 1 else t

type search = {
  label : string;
  objective : Bbc.Objective.t;
  pinned : bool;  (* forced nodes pinned, the others over all strategies *)
  count : int;
  weights : int -> int array array;  (* game [i]'s matrix; pure *)
}

(* Game [i] is ordinal [first + i] of the complete sweep: the 12
   off-diagonal cells of a 4 x 4 matrix in row-major order are its
   base-3 digits, the first cell most significant, so a block of
   3^6 = 729 ordinals fixes rows 0 and 1. *)
let complete objective ~first count =
  let weights i =
    let w = Array.make_matrix 4 4 0 in
    let o = ref (first + i) in
    for cell = 11 downto 0 do
      let u = cell / 3 and j = cell mod 3 in
      w.(u).(skip u j) <- !o mod 3;
      o := !o / 3
    done;
    w
  in
  let label = Printf.sprintf "every (4,1) game, weights 0-2, %s (full space)" (Bbc.Objective.to_string objective) in
  { label; objective; pinned = false; count; weights }

(* [count] random games, drawn up front in order and kept row-major,
   one char per weight. *)
let drawn label ~pinned count draw =
  let games =
    Array.init count (fun _ ->
        let w = draw () in
        let n = Array.length w in
        String.init (n * n) (fun c -> Char.chr w.(c / n).(c mod n)))
  in
  let weights i =
    let g = games.(i) in
    let n = Float.to_int (Float.sqrt (float_of_int (String.length g))) in
    Array.init n (fun u -> Array.init n (fun v -> Char.code g.[(u * n) + v]))
  in
  { label; objective = Max; pinned; count; weights }

(* Each off-diagonal weight is 0 with probability 0.55, else 1..3. *)
let sparse rng ~n count =
  drawn (Printf.sprintf "random sparse n=%d (full space)" n) ~pinned:false count (fun () ->
      Array.init n (fun u ->
          Array.init n (fun v ->
              if u = v then 0 else if SM.float rng 1.0 < 0.55 then 0 else 1 + SM.int rng 3)))

let seeded label ~seed count draw =
  let rng = SM.create seed in
  drawn (label ^ " (forced pinned)") ~pinned:true count (fun () -> draw rng)

let other rng n u = skip u (SM.int rng (n - 1))

(* [count] distinct targets of [u], each with a weight in 1..[max_weight]. *)
let prefer rng w u ~count ~max_weight =
  List.iter
    (fun t -> w.(u).(skip u t) <- 1 + SM.int rng max_weight)
    (SM.sample_without_replacement rng count (Array.length w - 1))

(* Players [0, free) prefer 2..[max_targets] targets; every other node
   [u] prefers only [forced u]. *)
let relays rng ~n ~free ~forced ~max_targets ~max_weight =
  let w = Array.make_matrix n n 0 in
  for u = free to n - 1 do
    w.(u).(forced u) <- 1
  done;
  for u = 0 to free - 1 do
    prefer rng w u ~count:(2 + SM.int rng (max_targets - 1)) ~max_weight
  done;
  w

let structured2 count =
  seeded "structured n=10, 2 free" ~seed:424242 count (fun rng ->
      relays rng ~n:10 ~free:2 ~forced:(other rng 10) ~max_targets:4 ~max_weight:3)

let structured3 count =
  seeded "structured n=9, 3 free" ~seed:987654321 count (fun rng ->
      relays rng ~n:9 ~free:3 ~forced:(other rng 9) ~max_targets:3 ~max_weight:2)

(* Forced nodes mostly point at their ring successor, so the graph
   keeps a backbone cycle and deviations change finite distances. *)
let ring count =
  seeded "ring-biased n=8..11, 2-3 free" ~seed:42 count (fun rng ->
      let n = 8 + SM.int rng 4 in
      let free = 2 + SM.int rng 2 in
      relays rng ~n ~free ~max_targets:3 ~max_weight:3 ~forced:(fun u ->
          if SM.float rng 1.0 < 0.7 then (u + 1) mod n else other rng n u))

(* Every node prefers one target with probability [single], else 2-3;
   draws with fewer than 2 or more than [max_free] multi-preference
   nodes are redrawn. *)
let hybrid ~n:(lo, hi) ~single ~max_free count =
  seeded (Printf.sprintf "hybrid n=%d..%d, <=%d free" lo hi max_free) ~seed:42 count (fun rng ->
      let rec draw () =
        let n = lo + SM.int rng (hi - lo + 1) in
        let w = Array.make_matrix n n 0 in
        let free = ref 0 in
        for u = 0 to n - 1 do
          let targets = if SM.float rng 1.0 < single then 1 else 2 + SM.int rng 2 in
          if targets > 1 then incr free;
          prefer rng w u ~count:targets ~max_weight:3
        done;
        if !free >= 2 && !free <= max_free then w else draw ()
      in
      draw ())

let hybrid_small = hybrid ~n:(7, 10) ~single:0.6 ~max_free:4
let hybrid_big = hybrid ~n:(11, 16) ~single:0.75 ~max_free:3

(* Two mirrored Figure-5 gadgets, gadget i on ids 8i..8i+7: central
   switch C, tops LT and RT, bottom switch RB, sink head S, sink chain
   S -> X -> Y -> C, and a spare relay.  C and RB are free, the rest
   forced.  Variant [i] is a mixed-radix number over the grid: the
   tops' and the spare's targets, C's weights (zeta on both tops, xi on
   the other C), RB's weight a on its own S and C (the paper's), and
   one extra preference of RB, varying fastest. *)
let fig5 count =
  let c, lt, rt, rb, s, x, y, spare = (0, 1, 2, 3, 4, 5, 6, 7) in
  let own r i = (8 * i) + r and other r i = (8 * (1 - i)) + r in
  let tops = [ own s; other s; other c; other lt; own spare; other spare ] in
  let digit l i = (List.nth l (i mod List.length l), i / List.length l) in
  let weights i =
    let extra, i = digit [ None; Some (other c, 1); Some (other c, 2); Some (own lt, 1); Some (own lt, 2) ] i in
    let a, i = digit [ 1; 2 ] i in
    let (zeta, xi), i = digit [ (2, 1); (3, 1); (3, 2); (1, 1); (1, 2); (2, 3); (1, 3) ] i in
    let spare_to, i = digit [ other c; other s; own s ] i in
    let rt_to, i = digit (own rb :: tops) i in
    let lt_to, _ = digit tops i in
    let w = Array.make_matrix 16 16 0 in
    for g = 0 to 1 do
      List.iter
        (fun (u, t) -> w.(own u g).(t g) <- 1)
        [ (lt, lt_to); (rt, rt_to); (spare, spare_to); (s, own x); (x, own y); (y, own c) ];
      w.(own c g).(own lt g) <- zeta;
      w.(own c g).(own rt g) <- zeta;
      w.(own c g).(other c g) <- xi;
      w.(own rb g).(own s g) <- a;
      w.(own rb g).(own c g) <- a;
      Option.iter (fun (t, v) -> w.(own rb g).(t g) <- v) extra
    done;
    w
  in
  { label = "Figure-5 grid n=16, 4 free (forced pinned)"; objective = Max; pinned = true; count; weights }

(* A pinned game is checked with its last multi-preference node
   relabelled as node n-1: {!Bbc.Exhaustive.blocks} prices node n-1's
   strategies once per block and stability-checks only its best
   responses, whereas a pinned node n-1 would make every profile pay a
   check (20x slower on Figure 5). *)
let free_last w =
  let n = Array.length w in
  let multi u = Array.fold_left (fun c x -> if x > 0 then c + 1 else c) 0 w.(u) > 1 in
  match List.find_opt multi (List.rev (List.init n Fun.id)) with
  | None -> w
  | Some u ->
      let p v = if v = u then n - 1 else if v = n - 1 then u else v in
      Array.init n (fun a -> Array.init n (fun b -> w.(p a).(p b)))

(* One pool task checks 16 consecutive games of a search. *)
let tally searches =
  let block = 16 in
  let check s first =
    let with_ne = ref 0 and without = ref 0 in
    for i = first to min s.count (first + block) - 1 do
      let w = s.weights i in
      let instance = Bbc.Instance.of_weights ~k:1 (if s.pinned then free_last w else w) in
      let candidates = if s.pinned then Some (Bbc.Exhaustive.forced_candidates instance) else None in
      match Bbc.Exhaustive.has_equilibrium ~objective:s.objective ?candidates instance with
      | Some true -> incr with_ne
      | Some false -> incr without
      | None -> ()
    done;
    (!with_ne, !without)
  in
  List.map
    (fun (s, blocks) ->
      let sum f = Array.fold_left (fun acc b -> acc + f b) 0 blocks in
      (s.label, s.count, sum fst, sum snd))
    (Trials.run
       (List.map (fun s -> (s, Array.init ((s.count + block - 1) / block) (fun j -> j * block))) searches)
       check)

let theorem7_searches ~quick =
  let rng = SM.create 2468 in
  let n4 = sparse rng ~n:4 (if quick then 300 else 2000) in
  let n5 = sparse rng ~n:5 (if quick then 100 else 500) in
  if quick then [ n4; n5 ]
  else
    let n6 = sparse rng ~n:6 5000 in
    [
      n4; n5; n6;
      complete Max ~first:0 531441;
      complete Sum ~first:0 531441;
      structured2 100_000;
      structured3 100_000;
      hybrid_small 20_000;
      hybrid_big 20_000;
      ring 100_000;
      fig5 8820;
    ]

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
  Table.add_rows t7
    (List.map
       (fun (label, games, with_ne, without) ->
         [ label; Table.cell_int games; Table.cell_int with_ne; Table.cell_int without ])
       (tally (theorem7_searches ~quick)));
  Table.render fmt t7;
  Table.note fmt
    (if quick then
       "every game above is checked by complete enumeration of its full \
        profile space; 'without' has never been hit"
     else
       "'full space' rows enumerate every profile; 'forced pinned' rows \
        pin each single-preference node to its one preferred link, its \
        unique strict best response at k = 1, and enumerate the rest");
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
