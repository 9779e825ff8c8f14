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
  let costs =
    List.sort Int.compare
      (List.map (Instance.cost instance u) (Best_response.candidate_targets instance u))
  in
  let c = List.length costs in
  let rec go i binom left = function
    | x :: rest when x <= left && binom < parallel_work ->
        let binom = binom * (c - i) / (i + 1) in
        binom + go (i + 1) binom (left - x) rest
    | _ -> 0
  in
  1 + go 0 1 (Instance.budget instance u) costs

(* Jobs for the scan: one on the closed form, which decides no node. *)
let resolve_jobs ?jobs instance = function
  | Some _ -> 1
  | None ->
      let n = Instance.n instance in
      let rec work u acc =
        if u = n || acc >= parallel_work then acc
        else work (u + 1) (acc + affordable_subsets instance u)
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
   [Best_response] sweeps a node's whole candidate row set in one
   [Csr.sssp_batch ~ban] call, so coarser chunks would add nothing
   there.) *)
let br_chunk = 1

let obs_stable_checks = Bbc_obs.counter "stability.is_stable"

let deviation ~objective ?csr instance config u =
  let d = Best_response.decide ~objective ?csr ~search:First_improving instance config u in
  if d.best.cost < d.current then Some { node = u; current_cost = d.current; better = d.best }
  else None

(* The one scan behind [is_stable] and [find_deviation]: the lowest
   unstable node, if any, as a thunk that yields its deviation, so that
   [is_stable] forces nothing.  On a uniform k = 1 functional profile
   ([closed]) one [Functional.scan] answers for every node (DESIGN.md
   section 9.2), and the thunk runs the reported node's decision only,
   so it reports what the per-node scan would.  Elsewhere
   [parallel_find_first] returns the lowest-index hit, the node the
   sequential scan would find.  All workers share one immutable full
   snapshot ([~ban] sweeps give each node its G_{-u} rows), so the
   fan-out builds no per-node graphs and the domains stay off the
   shared allocator. *)
let first_unstable ~objective ~jobs instance config closed =
  let n = Instance.n instance in
  match closed with
  | Some succ ->
      let s = Functional.scan succ in
      let rec from u =
        if u = n then None
        else if Functional.improves ~objective instance s u then
          Some (fun () -> deviation ~objective instance config u)
        else from (u + 1)
      in
      from 0
  | None ->
      let csr = Config.to_csr instance config in
      Bbc_parallel.parallel_find_first ~jobs ~chunk:br_chunk 0 n (fun u ->
          Option.map (fun d () -> Some d) (deviation ~objective ~csr instance config u))

let find_deviation ?(objective = Objective.Sum) ?jobs instance config =
  let closed = Functional.input instance config in
  let jobs = resolve_jobs ?jobs instance closed in
  Bbc_obs.with_span "stability.find_deviation"
    ~attrs:[ ("n", Bbc_obs.Int (Instance.n instance)); ("jobs", Bbc_obs.Int jobs) ] (fun () ->
      match first_unstable ~objective ~jobs instance config closed with
      | Some deviation -> deviation ()
      | None -> None)

let is_stable ?(objective = Objective.Sum) ?jobs instance config =
  Bbc_obs.incr obs_stable_checks;
  Config.feasible instance config
  &&
  let closed = Functional.input instance config in
  let jobs = resolve_jobs ?jobs instance closed in
  Option.is_none (first_unstable ~objective ~jobs instance config closed)

(* Per-node decisions even on the closed form: [Exhaustive] checks
   partial profiles node by node through this, and its counters count
   those decisions. *)
let nodes_stable ?objective instance config nodes =
  Config.feasible instance config
  &&
  let csr = Best_response.snapshot instance config in
  List.for_all
    (fun u -> Option.is_none (Best_response.improving ?objective ?csr instance config u))
    nodes

let pp_deviation fmt d =
  Format.fprintf fmt "node %d: cost %d -> %d via [%a]" d.node d.current_cost
    d.better.cost
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ") Format.pp_print_int)
    d.better.strategy
