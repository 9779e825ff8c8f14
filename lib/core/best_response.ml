module Csr = Bbc_graph.Csr
module Workspace = Bbc_graph.Workspace

type result = { strategy : int list; cost : int }

(* [f v] for every affordable target [v] of [u], increasing. *)
let iter_candidates instance u f =
  let b = Instance.budget instance u in
  for v = 0 to Instance.n instance - 1 do
    if v <> u && Instance.cost instance u v <= b then f v
  done

let candidate_targets instance u =
  let acc = ref [] in
  iter_candidates instance u (fun v -> acc := v :: !acc);
  List.rev !acc

(* The row table of one decision (DESIGN.md section 18).  Only the
   columns C_u = {x <> u : w(u,x) > 0} enter u's cost, and for w > 0 the
   weight commutes with the min: w * min(a, b) = min(w * a, w * b).
   Source v therefore becomes one row

     F_v.(i) = w(u,x_i) * (l(u,v) + d_{G-u}(v,x_i)),   or w(u,x_i) * M

   when x_i is unreachable from v; M exceeds every finite distance, so
   substituting it before the min changes no result.  A strategy S costs
   the sum (Sum) or max (Max) over i of min_{v in S} F_v.(i), and the
   empty strategy is the row w * M.  [Instance] keeps
   n * (n - 1) * max_weight * M below 2^62, so every entry and every sum
   fits the tagged arithmetic of the row kernel below.  All rows are
   pooled full-length rows of which only the prefix [0, k) is used. *)
type table = {
  k : int;  (** |C_u| *)
  cols : int array;  (** C_u, increasing *)
  wts : int array;  (** w(u, x_i) *)
  empty : int array;  (** w(u, x_i) * M: the empty strategy's row *)
  fs : int array array;  (** F row per source, in source order *)
}

(* The table of [u] over the sources [srcs]: one [Csr.sssp_batch ~ban:u]
   call fills a G_{-u} distance row per source, each turned into its F
   row at once and handed straight back to the pool, so the decision
   holds at most one row more than it has sources.  The sweeps run on [?csr]
   when the caller shares one (trusted to equal
   [Config.to_csr instance config]), which keeps parallel scans and
   walks from building one per decision; otherwise this decision builds
   its own.  An enumeration that runs to completion touches every
   candidate's F row at DFS depth 1 anyway, and the batch costs about
   one sweep's worth of graph reads. *)
let open_table ?csr ws instance config u ~srcs =
  let snap = match csr with Some full -> full | None -> Config.to_csr instance config in
  let n = Instance.n instance and m = Instance.penalty instance in
  let cols = Workspace.acquire ws n in
  let wts = Workspace.acquire ws n in
  let empty = Workspace.acquire ws n in
  let k = ref 0 in
  for x = 0 to n - 1 do
    let w = Instance.weight instance u x in
    if x <> u && w > 0 then begin
      cols.(!k) <- x;
      wts.(!k) <- w;
      empty.(!k) <- w * m;
      incr k
    end
  done;
  let k = !k in
  let dist = Array.map (fun _ -> Workspace.acquire ws n) srcs in
  Csr.sssp_batch ~ban:u snap (Workspace.scratch ws) ~srcs ~rows:dist;
  let fs =
    Array.mapi
      (fun s rv ->
        let luv = Instance.length instance u srcs.(s) in
        let f = Workspace.acquire ws n in
        for i = 0 to k - 1 do
          let r = rv.(cols.(i)) in
          f.(i) <- (if r = Csr.unreachable then empty.(i) else wts.(i) * (luv + r))
        done;
        Workspace.release ws rv;
        f)
      dist
  in
  { k; cols; wts; empty; fs }

(* Rows come back to the pool clean: only their prefix was written. *)
let release_prefix ws row k =
  Array.fill row 0 k Csr.unreachable;
  Workspace.release_clean ws row

(* Run [f ws t] on the table of [u] over [srcs]; every row of the table
   goes back to the pool afterwards. *)
let with_table ?csr instance config u ~srcs f =
  let ws = Workspace.get () in
  let t = open_table ?csr ws instance config u ~srcs in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> release_prefix ws f t.k) t.fs;
      release_prefix ws t.cols t.k;
      release_prefix ws t.wts t.k;
      release_prefix ws t.empty t.k)
    (fun () -> f ws t)

(* The row arithmetic of every scored subset is one C pass over the
   first [k] entries (row_kernel.c, DESIGN.md section 18.1). *)
external score_sum : int array -> int array -> (int[@untagged]) -> (int[@untagged])
  = "bbc_row_score_sum_byte" "bbc_row_score_sum"
[@@noalloc]

external score_max : int array -> int array -> (int[@untagged]) -> (int[@untagged])
  = "bbc_row_score_max_byte" "bbc_row_score_max"
[@@noalloc]

(* [dst] := min(cur, f) over the first [k] entries ([dst == cur] is fine). *)
external min_into : dst:int array -> int array -> int array -> (int[@untagged]) -> unit
  = "bbc_row_min_into_byte" "bbc_row_min_into"
[@@noalloc]

(* Cost of the row min(cur, f) over its first [k] entries, never
   materialized: most subsets of an enumeration are DFS leaves. *)
let score ~objective cur f k =
  match objective with
  | Objective.Sum -> score_sum cur f k
  | Objective.Max -> score_max cur f k

(* Subsets explored across all enumerations; accumulated locally and
   published once per call so the DFS hot loop stays untouched. *)
let obs_subsets = Bbc_obs.counter "best_response.subsets"
let obs_enumerations = Bbc_obs.counter "best_response.enumerations"

(* [min_cost_from costs] holds at [j] the cheapest of [costs.(j ..)]
   ([max_int] past the end): O(1) "is this subset a DFS leaf?" checks. *)
let min_cost_from costs =
  let c = Array.length costs in
  let m = Array.make (c + 1) max_int in
  for j = c - 1 downto 0 do
    m.(j) <- Int.min costs.(j) m.(j + 1)
  done;
  m

(* DFS over affordable subsets of [candidates], the table's first
   sources.
   [on_subset strategy_rev cost] is called for every feasible subset
   (including the empty one); it returns [true] to abort the search
   early. *)
let dfs ~objective ws instance u t ~candidates ~on_subset =
  let ncand = Array.length candidates in
  let costs = Array.map (fun v -> Instance.cost instance u v) candidates in
  let min_cost_from = min_cost_from costs in
  let n = Instance.n instance in
  let stop = ref false in
  let subsets = ref 1 in
  let k = t.k in
  (* min(a, a) = a: the empty strategy folds its own row. *)
  if on_subset [] (score ~objective t.empty t.empty k) then stop := true;
  (* Every subset is costed by one [score] pass; the merged row is
     materialized (into a pooled row borrowed for the subtree) only
     when the DFS actually descends — i.e. when some further
     candidate is still affordable.  The row goes back to the pool
     also when [on_subset] raises inside the subtree. *)
  let rec go i chosen budget cur =
    if not !stop then
      for j = i to ncand - 1 do
        if not !stop then begin
          let c = costs.(j) in
          if c <= budget then begin
            let v = candidates.(j) in
            let f = t.fs.(j) in
            let chosen' = v :: chosen in
            incr subsets;
            if on_subset chosen' (score ~objective cur f k) then stop := true
            else if min_cost_from.(j + 1) <= budget - c then begin
              let cur' = Workspace.acquire ws n in
              min_into ~dst:cur' cur f k;
              match go (j + 1) chosen' (budget - c) cur' with
              | () -> release_prefix ws cur' k
              | exception e ->
                  release_prefix ws cur' k;
                  raise e
            end
          end
        end
      done
  in
  go 0 [] (Instance.budget instance u) t.empty;
  Bbc_obs.incr obs_enumerations;
  Bbc_obs.add obs_subsets !subsets

(* Whether [Exact] runs [bounded] for [u]: only where the budget buys
   at least three of the cheapest candidate links.  With two the
   subtrees are too shallow for a bound to pay for itself (DESIGN.md
   section 19.1). *)
let bounded_pays instance u candidates =
  Array.length candidates > 0
  &&
  let cheapest = Array.fold_left (fun m v -> Int.min m (Instance.cost instance u v)) max_int candidates in
  Instance.budget instance u >= 3 * cheapest

(* The first optimum of [dfs] without visiting every subset.  Candidates
   are tried in increasing order of their singleton score, so good
   subsets come early, and at DFS position [p] the columnwise min of
   the F rows of every candidate from [p] on, [lb.(p)], bounds every
   subset the rest of the loop can reach: adding candidates only lowers
   entries towards it, so [score cur lb.(p)] is at most the cost of any
   of them.  The bound grows with [p], so once it is strictly above the
   best cost the loop stops.  Equal costs go to the subset that comes
   first in [dfs]'s order, so the answer is [dfs]'s first minimum: a
   skipped subset costs more than the best one.  Returns that subset's
   targets and cost. *)
let bounded ~objective ws instance u t ~candidates =
  let ncand = Array.length candidates in
  let k = t.k and n = Instance.n instance and fs = t.fs in
  let single = Array.init ncand (fun j -> score ~objective t.empty fs.(j) k) in
  let order = Array.init ncand Fun.id in
  Array.stable_sort (fun a b -> Int.compare single.(a) single.(b)) order;
  let costs = Array.map (fun j -> Instance.cost instance u candidates.(j)) order in
  let min_cost_from = min_cost_from costs in
  let lb = Array.make ncand [||] in
  for p = ncand - 1 downto 0 do
    let row = Workspace.acquire ws n in
    (* Every F row lies below the empty strategy's. *)
    min_into ~dst:row (if p = ncand - 1 then t.empty else lb.(p + 1)) fs.(order.(p)) k;
    lb.(p) <- row
  done;
  let best_cost = ref (score ~objective t.empty t.empty k) in
  let best = ref [] in
  let subsets = ref 1 in
  let rec go p chosen budget cur =
    let q = ref p in
    while !q < ncand do
      let p = !q in
      if score ~objective cur lb.(p) k > !best_cost then q := ncand
      else begin
        let c = costs.(p) in
        if c <= budget then begin
          let j = order.(p) in
          let f = fs.(j) in
          let chosen' = j :: chosen in
          incr subsets;
          let cost = score ~objective cur f k in
          if cost < !best_cost then begin
            best_cost := cost;
            best := List.sort Int.compare chosen'
          end
          else if cost = !best_cost then begin
            (* [dfs] visits subsets in lexicographic order of their
               increasing candidate indices, a prefix first. *)
            let sorted = List.sort Int.compare chosen' in
            if List.compare Int.compare sorted !best < 0 then best := sorted
          end;
          if min_cost_from.(p + 1) <= budget - c then begin
            let cur' = Workspace.acquire ws n in
            min_into ~dst:cur' cur f k;
            go (p + 1) chosen' (budget - c) cur';
            release_prefix ws cur' k
          end
        end;
        q := p + 1
      end
    done
  in
  go 0 [] (Instance.budget instance u) t.empty;
  Array.iter (fun row -> release_prefix ws row k) lb;
  Bbc_obs.incr obs_enumerations;
  Bbc_obs.add obs_subsets !subsets;
  (List.map (fun j -> candidates.(j)) !best, !best_cost)

(* [u]'s cost under its current [targets], all of them among [srcs]:
   the min-fold of their F rows, scored like any subset.  A target that
   is not a candidate (outside the sample, or over budget in an
   infeasible profile) has its row after the candidates', where the DFS
   never reads it. *)
let price ~objective ws instance t ~srcs targets =
  let k = t.k in
  let cur = Workspace.acquire ws (Instance.n instance) in
  Array.blit t.empty 0 cur 0 k;
  List.iter
    (fun v -> min_into ~dst:cur cur t.fs.(Option.get (Array.find_index (Int.equal v) srcs)) k)
    targets;
  let c = score ~objective cur cur k in
  release_prefix ws cur k;
  c

(* Uniform k = 1 on a functional profile (DESIGN.md section 9): every
   strategy of [u] is the empty set or a singleton {v}, which costs
   [Functional.cost] of v's walk count T_v in G_{-u}, all of which come
   from one O(n) pass.  [u]'s current cost is that of its current
   target, or of the empty strategy when it has none.  [Some (succ, T)]
   when the closed form applies to [u]'s decision. *)
let closed_form instance config u =
  Option.map (fun succ -> (succ, Functional.walk_counts succ u)) (Functional.input instance config)

let snapshot instance config =
  match Functional.input instance config with
  | Some _ -> None
  | None -> Some (Config.to_csr instance config)

let closed_current ~objective instance (succ, t) u =
  Functional.cost ~objective instance (if succ.(u) < 0 then 0 else t.(succ.(u)))

(* The affordable subsets are exactly the empty set and the singletons,
   visited in the order the DFS would use. *)
let closed_enumerate ~objective instance (_, t) u ~on_subset =
  let subsets = ref 1 in
  if not (on_subset [] (Functional.cost ~objective instance 0)) then begin
    let rec go v =
      if v < Instance.n instance then
        if v = u then go (v + 1)
        else begin
          incr subsets;
          if not (on_subset [ v ] (Functional.cost ~objective instance t.(v))) then go (v + 1)
        end
    in
    go 0
  end;
  Bbc_obs.incr obs_enumerations;
  Bbc_obs.add obs_subsets !subsets

let scratch_enumerate ~objective ?csr instance config u ~on_subset =
  let candidates = Array.of_list (candidate_targets instance u) in
  with_table ?csr instance config u ~srcs:candidates (fun ws t ->
      dfs ~objective ws instance u t ~candidates ~on_subset)

let enumerate ?(objective = Objective.Sum) ?csr instance config u ~on_subset =
  match closed_form instance config u with
  | Some cf -> closed_enumerate ~objective instance cf u ~on_subset
  | None -> scratch_enumerate ~objective ?csr instance config u ~on_subset

type search = Exact | First_improving | Sampled of { rng : Bbc_prng.Splitmix.t; sample : int }
type decision = { best : result; current : int }

(* The candidate pool of one search: every affordable target, or a
   uniform sample of them drawn from [rng].  The affordable targets are
   listed in a pooled row, so a sample of a few out of thousands
   allocates only the sample. *)
let pool ~search instance u =
  let ws = Workspace.get () in
  let all = Workspace.acquire ws (Instance.n instance) in
  let count = ref 0 in
  iter_candidates instance u (fun v ->
      all.(!count) <- v;
      incr count);
  let c = !count in
  let picked =
    match search with
    | Sampled { rng; sample } when sample < c ->
        let picked = Array.make sample 0 in
        List.iteri
          (fun i j -> picked.(i) <- all.(j))
          (Bbc_prng.Splitmix.sample_without_replacement rng sample c);
        picked
    | Exact | First_improving | Sampled _ -> Array.sub all 0 c
  in
  release_prefix ws all c;
  picked

(* One table prices both sides of the decision: the current targets
   that are not candidates join its sources after the candidates,
   [price] folds the targets' F rows, and the DFS, or for [Exact] where
   it pays the bounded search, scores the candidates' subsets against
   that cost. *)
let scratch_decide ~objective ?csr ~search instance config u ~on_subset =
  let candidates = pool ~search instance u in
  let targets = Config.targets config u in
  let others = List.filter (fun v -> not (Array.exists (Int.equal v) candidates)) targets in
  let srcs = Array.append candidates (Array.of_list others) in
  with_table ?csr instance config u ~srcs (fun ws t ->
      let current = price ~objective ws instance t ~srcs targets in
      let on_subset = on_subset current in
      (match search with
      | Exact when bounded_pays instance u candidates ->
          let strategy, cost = bounded ~objective ws instance u t ~candidates in
          ignore (on_subset strategy cost)
      | Exact | First_improving | Sampled _ -> dfs ~objective ws instance u t ~candidates ~on_subset);
      current)

let decide ?(objective = Objective.Sum) ?csr ~search instance config u =
  let best = ref { strategy = []; cost = max_int } in
  let stop_early = match search with First_improving -> true | Exact | Sampled _ -> false in
  (* The first minimum in DFS order; [First_improving] stops at the
     first subset strictly below [current], which is then also the
     minimum so far. *)
  let on_subset current chosen cost =
    cost < !best.cost
    && begin
         best := { strategy = chosen; cost };
         stop_early && cost < current
       end
  in
  let closed =
    match search with
    | Exact | First_improving -> closed_form instance config u
    | Sampled _ -> None
  in
  let current =
    match closed with
    | Some cf ->
        let current = closed_current ~objective instance cf u in
        closed_enumerate ~objective instance cf u ~on_subset:(on_subset current);
        current
    | None -> scratch_decide ~objective ?csr ~search instance config u ~on_subset
  in
  { best = { !best with strategy = List.sort Int.compare !best.strategy }; current }

let exact ?objective ?csr instance config u =
  (decide ?objective ?csr ~search:Exact instance config u).best

let improvement d = if d.best.cost < d.current then Some d.best else None

let improving ?objective ?csr instance config u =
  improvement (decide ?objective ?csr ~search:First_improving instance config u)

let sampled ?objective ?csr ~rng ~sample instance config u =
  improvement (decide ?objective ?csr ~search:(Sampled { rng; sample }) instance config u)

