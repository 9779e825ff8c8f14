type deviation = {
  node : int;
  current_cost : int;
  better : Best_response.result;
}

(* Per-node best-response checks only read the shared instance,
   profile and snapshot, so they fan out over the domain pool once the
   scan's work reaches [parallel_work]: nodes times affordable subsets
   per node.  Below it a pool wake costs more than the checks it splits
   (crossover measured in DESIGN.md section 7). *)
let parallel_work = 4096

(* [u]'s affordable subsets, counted until they pass [parallel_work]:
   C(c, i) sets of i of its c candidates for each i whose i cheapest
   targets fit the budget (exact on unit costs). *)
let affordable_subsets instance u =
  let costs = List.sort compare (List.map (Instance.cost instance u) (Best_response.candidate_targets instance u)) in
  let c = List.length costs in
  let rec go i binom left = function
    | x :: rest when x <= left && binom < parallel_work ->
        let binom = binom * (c - i) / (i + 1) in
        binom + go (i + 1) binom (left - x) rest
    | _ -> 0
  in
  1 + go 0 1 (Instance.budget instance u) costs

let resolve_jobs ?jobs instance =
  let n = Instance.n instance in
  let rec work u acc =
    if u = n || acc >= parallel_work then acc else work (u + 1) (acc + affordable_subsets instance u)
  in
  Bbc_parallel.jobs_for ?jobs ~threshold:parallel_work (work 0 0)

(* One node per chunk pull.  A best-response check runs a full DFS over
   strategy space against the pooled CSR rows, so per-node work is both
   heavy (microseconds to milliseconds) and uneven (it depends on the
   node's budget and candidate set).  The pool's default chunking
   (~range/8 per job) leaves stragglers holding several expensive nodes
   and delays [parallel_find_first]'s early abort to chunk granularity;
   one-node chunks cost a single fetch-add per node — noise next to the
   check itself — and give node-granular balance and abort.  (The distance sweeps inside each check are batched anyway:
   [Best_response] prefetches a node's whole candidate row set through
   one [Csr.sssp_batch ~ban] call, so coarser chunks would add nothing
   there.) *)
let br_chunk = 1

let obs_stable_checks = Bbc_obs.counter "stability.is_stable"

let deviation ~objective ?csr instance config u =
  let d = Best_response.decide ~objective ?csr ~search:First_improving instance config u in
  if d.best.cost < d.current then Some { node = u; current_cost = d.current; better = d.best }
  else None

(* On a uniform k = 1 functional profile one [Functional.scan] answers
   for every node (DESIGN.md section 9.2): the nodes it finds unstable,
   in node order.  A scan that reports a deviation runs the reported
   node's decision only, so it reports what the per-node scan would. *)
let closed_unstable ~objective instance succ =
  let s = Functional.scan succ in
  List.filter (Functional.improves ~objective instance s) (List.init (Instance.n instance) Fun.id)

let find_deviation ?(objective = Objective.Sum) ?jobs instance config =
  let n = Instance.n instance in
  let closed = Functional.input instance config in
  let jobs = if Option.is_some closed then 1 else resolve_jobs ?jobs instance in
  Bbc_obs.with_span "stability.find_deviation"
    ~attrs:[ ("n", Bbc_obs.Int n); ("jobs", Bbc_obs.Int jobs) ] (fun () ->
      match closed with
      | Some succ -> (
          match closed_unstable ~objective instance succ with
          | u :: _ -> deviation ~objective instance config u
          | [] -> None)
      | None ->
          (* [parallel_find_first] returns the lowest-index hit, so the
             reported deviation is the same node the sequential scan
             would find.  All workers share one immutable full snapshot
             ([~ban] sweeps give each node its G_{-u} rows), so the
             fan-out builds no per-node graphs and the domains stay off
             the shared allocator. *)
          let csr = Config.to_csr instance config in
          Bbc_parallel.parallel_find_first ~jobs ~chunk:br_chunk 0 n
            (deviation ~objective ~csr instance config))

let improvable ?objective ?csr instance config u =
  Option.is_some (Best_response.improving ?objective ?csr instance config u)

let is_stable ?(objective = Objective.Sum) ?jobs instance config =
  Bbc_obs.incr obs_stable_checks;
  Config.feasible instance config
  &&
  match Functional.input instance config with
  | Some succ -> closed_unstable ~objective instance succ = []
  | None ->
      let csr = Config.to_csr instance config in
      let jobs = resolve_jobs ?jobs instance in
      Option.is_none
        (Bbc_parallel.parallel_find_first ~jobs ~chunk:br_chunk 0 (Instance.n instance)
           (Best_response.improving ~objective ~csr instance config))

(* Per-node decisions even on the closed form: [Exhaustive] checks
   partial profiles node by node through this, and its counters count
   those decisions. *)
let nodes_stable ?objective instance config nodes =
  Config.feasible instance config
  &&
  let csr = Best_response.snapshot instance config in
  not (List.exists (improvable ?objective ?csr instance config) nodes)

(* The two whole-profile scans below are sequential: no workload or
   gate reaches them with more than one job (DESIGN.md section 7). *)
let unstable_nodes ?objective instance config =
  let csr = Best_response.snapshot instance config in
  List.filter (improvable ?objective ?csr instance config) (List.init (Instance.n instance) Fun.id)

(* Each node's gap is [current - best.cost] of one exact decision, whose
   current cost comes from the search's own rows.  An overspending node
   can sit below every affordable strategy; the fold from 0 clips it. *)
let stability_gap ?objective instance config =
  let csr = Best_response.snapshot instance config in
  let gap = ref 0 in
  for u = 0 to Instance.n instance - 1 do
    let d = Best_response.decide ?objective ?csr ~search:Exact instance config u in
    gap := max !gap (d.current - d.best.cost)
  done;
  !gap

let pp_deviation fmt d =
  Format.fprintf fmt "node %d: cost %d -> %d via [%a]" d.node d.current_cost
    d.better.cost
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ") Format.pp_print_int)
    d.better.strategy
