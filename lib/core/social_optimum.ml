type summary = {
  optimum : int;
  optimal_profile : Config.t;
  best_equilibrium : (int * Config.t) option;
  worst_equilibrium : (int * Config.t) option;
  equilibria : int;
  profiles : int;
}

let ratio_of value summary =
  Option.map
    (fun (cost, _) -> float_of_int cost /. float_of_int (max summary.optimum 1))
    value

let price_of_stability summary = ratio_of summary.best_equilibrium summary

let price_of_anarchy summary = ratio_of summary.worst_equilibrium summary

(* Local-search scoring.  Fix a node u and let D be the all-pairs
   distances of G_{-u}, the sweep's profile with u's links removed.  If
   u plays S, its own row is

     m_S(x) = min(D[u][x], min over t in S of l(u,t) + D[t][x])

   and every other distance is

     d_S(w,x) = min(D[w][x], D[w][u] + m_S(x))

   because a shortest path visits u at most once and leaves it along a
   link of S.  One batched G_{-u} sweep therefore scores every strategy
   of u exactly: no per-candidate snapshot and no per-candidate sweep.
   Sum separates over the targets x and is tabulated once per u; Max
   does not separate and folds each source's merged row. *)

module Csr = Bbc_graph.Csr
module Workspace = Bbc_graph.Workspace

let obs_moves = Bbc_obs.counter "social_optimum.moves_scored"

(* Sum.  The social cost is the sum over targets x of f_x(m_S(x)), with

     f_x(m) = sum over w <> x of weight(w,x) * pen(min(D[w][x], D[w][u] + m)).

   Source w gains exactly when m < b_w = D[w][x] - D[w][u] (max_int when
   x is unreachable from w), so with x's breakpoints sorted ascending
   the gaining sources form a suffix, and

     f_x(m) = f_x(inf) + gain(i) + m * weight(i),   i = first b_w > m,

   with gain/weight the suffix sums of weight(w,x) * (D[w][u] -
   pen(D[w][x])) and of weight(w,x).  f_x is non-decreasing (pen is
   monotone on real distances, since M > n * max length), so
   f_x(min over t of a_t) = min over t of f_x(a_t): tabulating
   [f.(t * n + x)] = f_x(l(u,t) + D[t][x]) for every candidate target t
   turns a strategy's cost into a min-and-sum over its rows of [f].
   Returns the empty strategy's cost, the sum of f_x(inf). *)
let fill_link_costs f instance (d : int array array) u ~targets =
  let n = Instance.n instance in
  let pen = Instance.penalty instance in
  (* The sources that can reach u, kept sorted by breakpoint (insertion:
     x has at most n - 1 of them), then suffix-summed in place. *)
  let bp = Array.make n 0 and gain = Array.make (n + 1) 0 and wsum = Array.make (n + 1) 0 in
  let empty = ref 0 in
  for x = 0 to n - 1 do
    let k = ref 0 and base = ref 0 in
    for w = 0 to n - 1 do
      let om = if w = x then 0 else Instance.weight instance w x in
      if om > 0 then begin
        let dwx = d.(w).(x) and dwu = d.(w).(u) in
        let p = if dwx = Csr.unreachable then pen else dwx in
        base := !base + (om * p);
        if dwu <> Csr.unreachable then begin
          let b = if dwx = Csr.unreachable then max_int else dwx - dwu in
          let i = ref !k in
          while !i > 0 && bp.(!i - 1) > b do
            bp.(!i) <- bp.(!i - 1);
            gain.(!i) <- gain.(!i - 1);
            wsum.(!i) <- wsum.(!i - 1);
            decr i
          done;
          bp.(!i) <- b;
          gain.(!i) <- om * (dwu - p);
          wsum.(!i) <- om;
          incr k
        end
      end
    done;
    let k = !k in
    gain.(k) <- 0;
    wsum.(k) <- 0;
    for i = k - 1 downto 0 do
      gain.(i) <- gain.(i) + gain.(i + 1);
      wsum.(i) <- wsum.(i) + wsum.(i + 1)
    done;
    empty := !empty + !base;
    Array.iter
      (fun t ->
        let dtx = d.(t).(x) in
        f.((t * n) + x) <-
          (if dtx = Csr.unreachable then !base
           else begin
             let m = Instance.length instance u t + dtx in
             let lo = ref 0 and hi = ref k in
             while !lo < !hi do
               let mid = (!lo + !hi) lsr 1 in
               if bp.(mid) > m then hi := mid else lo := mid + 1
             done;
             !base + gain.(!lo) + (m * wsum.(!lo))
           end))
      targets
  done;
  !empty

(* min over the targets [ts] of their [f] entries for x, from [v]. *)
let rec min_link_cost f n x v = function
  | [] -> v
  | t :: ts ->
      let c = f.((t * n) + x) in
      min_link_cost f n x (if c < v then c else v) ts

(* Sum cost of strategy [s], or any value >= [bound] once the partial
   sum (every term is non-negative) reaches it. *)
let sum_score f n ~empty s ~bound =
  match s with
  | [] -> empty
  | t :: ts ->
      let acc = ref 0 and x = ref 0 in
      while !x < n && !acc < bound do
        acc := !acc + min_link_cost f n !x f.((t * n) + !x) ts;
        incr x
      done;
      !acc

(* [m] := min(m, luv + rv): u's row gains the link to the target whose
   G_{-u} row is [rv]. *)
let add_link m rv luv =
  for x = 0 to Array.length m - 1 do
    let r = rv.(x) in
    if r <> Csr.unreachable && luv + r < m.(x) then m.(x) <- luv + r
  done

(* Max cost of source w's row min(src, dwu + m), in one pass without
   materializing it: the same terms as [Eval.cost_of_distances]. *)
let merged_max_cost instance w ~src m dwu =
  let pen = Instance.penalty instance in
  let acc = ref 0 in
  for x = 0 to Array.length src - 1 do
    if x <> w then begin
      let om = Instance.weight instance w x in
      if om > 0 then begin
        let mx = m.(x) and d0 = src.(x) in
        let d = if mx <> Csr.unreachable && dwu + mx < d0 then dwu + mx else d0 in
        let d = if d = Csr.unreachable then pen else d in
        if om * d > !acc then acc := om * d
      end
    end
  done;
  !acc

(* Max cost of u's row [m]: sources that cannot reach u keep their
   G_{-u} cost [fixed]; every other source folds its merged row.  Stops
   like [sum_score]. *)
let max_score instance (d : int array array) u ~fixed m ~bound =
  let n = Array.length m in
  let acc = ref fixed and w = ref 0 in
  while !w < n && !acc < bound do
    let dwu = d.(!w).(u) in
    if dwu <> Csr.unreachable then
      acc := !acc + merged_max_cost instance !w ~src:d.(!w) m dwu;
    incr w
  done;
  !acc

(* [f d] on the G_{-u} distance matrix [d] of [csr]: one batched
   [~ban:u] sweep from all n sources into pooled rows. *)
let with_matrix csr u f =
  let n = Csr.n csr and ws = Workspace.get () in
  let d = Workspace.acquire_many ws n n in
  Csr.sssp_batch ~ban:u csr (Workspace.scratch ws) ~srcs:(Array.init n Fun.id) ~rows:d;
  let r = f d in
  Csr.reset_rows (Workspace.scratch ws) ~rows:d;
  Workspace.release_clean_many ws d;
  r

(* The exact social cost of u's strategies, from the G_{-u} distance
   matrix [d]: Sum through the per-link table [f] (n * n, [targets]
   the targets any scored strategy may use), Max through the merged-row
   fold into the scratch row [m].  The scorer stops like [sum_score]
   once a partial cost reaches [bound]. *)
let scorer ~objective instance d u ~targets ~f ~m =
  let n = Instance.n instance in
  match objective with
  | Objective.Sum ->
      let empty = fill_link_costs f instance d u ~targets in
      sum_score f n ~empty
  | Objective.Max ->
      let fixed = ref 0 in
      for w = 0 to n - 1 do
        if d.(w).(u) = Csr.unreachable then
          fixed := !fixed + Eval.cost_of_distances ~objective instance w d.(w)
      done;
      fun s ~bound ->
        Array.fill m 0 n Csr.unreachable;
        m.(u) <- 0;
        List.iter (fun t -> add_link m d.(t) (Instance.length instance u t)) s;
        max_score instance d u ~fixed:!fixed m ~bound

(* [b] folded after [a]: the first optimum and the first best and
   worst equilibrium in enumeration order win ties, so folding profiles
   and then prefixes left to right keeps the sequential choices. *)
let merge a b =
  let pick better x y =
    match (x, y) with Some (c, _), Some (c', _) when not (better c' c) -> x | _, None -> x | _ -> y
  in
  {
    optimum = min a.optimum b.optimum;
    optimal_profile = (if b.optimum < a.optimum then b.optimal_profile else a.optimal_profile);
    best_equilibrium = pick ( < ) a.best_equilibrium b.best_equilibrium;
    worst_equilibrium = pick ( > ) a.worst_equilibrium b.worst_equilibrium;
    equilibria = a.equilibria + b.equilibria;
    profiles = a.profiles + b.profiles;
  }

let analyze ?(objective = Objective.Sum) ?candidates ?(max_profiles = 2_000_000) ?jobs instance =
  let n = Instance.n instance in
  let candidates = Exhaustive.candidate_lists ?candidates instance in
  if Exhaustive.space_size candidates > float_of_int max_profiles then None
  else begin
    let rows = Exhaustive.candidate_rows instance candidates in
    let jobs = Bbc_parallel.jobs_for ?jobs ~threshold:0 n in
    let last = n - 1 in
    let strategies = Array.map Array.to_list rows.(last) in
    let targets = Array.of_list (List.sort_uniq compare (List.concat (Array.to_list strategies))) in
    let empty =
      { optimum = max_int; optimal_profile = Config.empty n; best_equilibrium = None;
        worst_equilibrium = None; equilibria = 0; profiles = 0 }
    in
    let start _ _ =
      Some (ref empty, Array.make (Array.length strategies) 0, Array.make (n * n) 0, Array.make n 0)
    in
    (* One batched G_{-(n-1)} sweep from all n sources scores the social
       cost of every candidate of the last node; the block's last-level
       pruning decides which of them are equilibria. *)
    let block (acc, social, f, m) (b : Exhaustive.block) =
      with_matrix (Config.to_csr instance b.view) last (fun d ->
          let score = scorer ~objective instance d last ~targets ~f ~m in
          Array.iteri (fun j s -> social.(j) <- score s ~bound:max_int) strategies);
      Array.iteri
        (fun j cost ->
          (* Profile j as a one-profile summary.  [merge] keeps its
             profile only where it is strictly better, and then it is
             a copy, never the block's buffer. *)
          let ne = b.stable j in
          let p = if ne || cost < !acc.optimum then Config.snapshot b.view else b.view in
          let this = if ne then Some (cost, p) else None in
          acc :=
            merge !acc
              { optimum = cost; optimal_profile = p; best_equilibrium = this;
                worst_equilibrium = this; equilibria = Bool.to_int ne; profiles = 1 })
        social;
      false
    in
    let s =
      Array.fold_left
        (fun s -> Option.fold ~none:s ~some:(fun (acc, _, _, _) -> merge s !acc))
        empty
        (Exhaustive.blocks ~objective ~jobs instance rows ~start ~block)
    in
    if s.profiles = 0 then None else Some s
  end

(* One per-link table per domain, reused by every node and sweep:
   [fill_link_costs] writes every entry a score then reads. *)
let link_tables = Domain.DLS.new_key (fun () -> ref [||])

let link_table n =
  let f = Domain.DLS.get link_tables in
  if Array.length !f < n * n then f := Array.make (n * n) 0;
  !f

(* Prefer the pool from this many nodes on: below it a sweep's
   per-node scoring is too short to pay for the hand-off. *)
let parallel_threshold = 16

let local_search ?(objective = Objective.Sum) ?(restarts = 3) ?(max_sweeps = 50) rng instance =
  let n = Instance.n instance in
  let jobs = Bbc_parallel.jobs_for ~threshold:parallel_threshold n in
  Bbc_obs.with_span "social_optimum.local_search"
    ~attrs:[ ("n", Bbc_obs.Int n); ("restarts", Bbc_obs.Int restarts); ("jobs", Bbc_obs.Int jobs) ]
  @@ fun () ->
  let random_start () =
    let strategies =
      Array.init n (fun u ->
          let choices = Array.of_list (Exhaustive.maximal_strategies instance u) in
          if Array.length choices = 0 then []
          else Bbc_prng.Splitmix.choose rng choices)
    in
    Config.of_lists n strategies
  in
  (* Node [u]'s best replacement in one sweep: the first strictly best
     strategy, in [Exhaustive.all_strategies] order, below the sweep's
     [cost].  Nodes only read the sweep's snapshot, so they fan out over
     the pool, each with its own rows and table. *)
  let best_move csr config cost u =
    with_matrix csr u @@ fun d ->
    let m = Array.make n 0 and f = link_table n in
    let targets = Array.of_list (Best_response.candidate_targets instance u) in
    let score = scorer ~objective instance d u ~targets ~f ~m in
    let current = Config.targets config u in
    let best = ref None and scored = ref 0 in
    List.iter
      (fun s ->
        if s <> current then begin
          incr scored;
          let bound = match !best with Some (_, c) -> c | None -> cost in
          let c = score s ~bound in
          if c < bound then best := Some (s, c)
        end)
      (Exhaustive.all_strategies instance u);
    (!best, !scored)
  in
  (* Best single-node replacement by social cost: the strict minimum
     over the nodes' own best moves, nodes ascending — the move a
     sequential sweep over u ascending, then strategies, keeps. *)
  let improve_once config cost =
    let csr = Config.to_csr instance config in
    let moves = Bbc_parallel.parallel_init ~jobs ~chunk:1 n (best_move csr config cost) in
    let best = ref None and scored = ref 0 in
    Array.iteri
      (fun u (move, k) ->
        scored := !scored + k;
        match (move, !best) with
        | Some (s, c), Some (_, _, b) when c < b -> best := Some (u, s, c)
        | Some (s, c), None -> best := Some (u, s, c)
        | _ -> ())
      moves;
    Bbc_obs.add obs_moves !scored;
    Option.map (fun (u, s, c) -> (Config.with_strategy config u s, c)) !best
  in
  let run_from config =
    let rec go config cost sweeps =
      if sweeps >= max_sweeps then (cost, config)
      else
        match improve_once config cost with
        | Some (config', cost') -> go config' cost' (sweeps + 1)
        | None -> (cost, config)
    in
    go config (Eval.social_cost ~objective instance config) 0
  in
  let best = ref (run_from (random_start ())) in
  for _ = 2 to max 1 restarts do
    let candidate = run_from (random_start ()) in
    if fst candidate < fst !best then best := candidate
  done;
  !best
