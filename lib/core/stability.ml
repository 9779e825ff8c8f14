type deviation = {
  node : int;
  current_cost : int;
  better : Best_response.result;
}

(* Per-node best-response checks only read the shared instance,
   profile and snapshot, so they fan out over the domain pool once the
   scan's work reaches [parallel_work]: nodes times affordable subsets
   per node, or n per node on the closed form (no snapshot).  Below it
   a pool wake costs more than the checks it splits (crossover measured
   in DESIGN.md section 7; on the closed form the cutoff is 64 nodes). *)
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

let resolve_jobs ?jobs instance csr =
  let n = Instance.n instance in
  let rec work u acc =
    if u = n || acc >= parallel_work then acc
    else work (u + 1) (acc + if Option.is_none csr then n else affordable_subsets instance u)
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
   on unit-length snapshots [Best_response] prefetches a node's whole
   candidate row set through one bit-parallel [Csr.sssp_batch ~ban]
   traversal, so coarser chunks would add nothing there.) *)
let br_chunk = 1

let obs_stable_checks = Bbc_obs.counter "stability.is_stable"

let find_deviation ?objective ?jobs instance config =
  let n = Instance.n instance in
  let csr = Best_response.snapshot instance config in
  let jobs = resolve_jobs ?jobs instance csr in
  Bbc_obs.with_span "stability.find_deviation"
    ~attrs:[ ("n", Bbc_obs.Int n); ("jobs", Bbc_obs.Int jobs) ] (fun () ->
      (* [parallel_find_first] returns the lowest-index hit, so the reported
         deviation is the same node the sequential scan would find.  All
         workers share one immutable full snapshot ([~ban] sweeps give
         each node its G_{-u} rows), so the fan-out builds no per-node
         graphs and the domains stay off the shared allocator.  The
         snapshot is built before the fan-out, and only when some
         decision reads rows. *)
      Bbc_parallel.parallel_find_first ~jobs ~chunk:br_chunk 0 n (fun u ->
          let d = Best_response.decide ?objective ?csr ~search:First_improving instance config u in
          if d.best.cost < d.current then Some { node = u; current_cost = d.current; better = d.best }
          else None))

let improvable ?objective ?csr instance config u =
  Option.is_some (Best_response.improving ?objective ?csr instance config u)

let is_stable ?objective ?jobs instance config =
  Bbc_obs.incr obs_stable_checks;
  Config.feasible instance config
  &&
  let csr = Best_response.snapshot instance config in
  let jobs = resolve_jobs ?jobs instance csr in
  Option.is_none
    (Bbc_parallel.parallel_find_first ~jobs ~chunk:br_chunk 0 (Instance.n instance) (fun u ->
         Best_response.improving ?objective ?csr instance config u))

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
