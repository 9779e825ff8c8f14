(* The representation and objective dispatch is hoisted out of the
   per-node loop: this fold runs once per SSSP across every evaluation
   path, and the generic [Objective.fold]-per-element version costs a
   non-inlined call (plus a weight lookup dispatch) per node. *)
let cost_of_distances ?(objective = Objective.Sum) instance u dist =
  let n = Instance.n instance in
  let m = Instance.penalty instance in
  match objective with
  | Objective.Sum -> (
      match Instance.weight_row instance u with
      | None ->
          let acc = ref 0 in
          for v = 0 to n - 1 do
            if v <> u then begin
              let d = dist.(v) in
              acc := !acc + (if d = Bbc_graph.Csr.unreachable then m else d)
            end
          done;
          !acc
      | Some wrow ->
          let acc = ref 0 in
          for v = 0 to n - 1 do
            if v <> u then begin
              let w = wrow.(v) in
              if w > 0 then begin
                let d = dist.(v) in
                acc := !acc + (w * if d = Bbc_graph.Csr.unreachable then m else d)
              end
            end
          done;
          !acc)
  | Objective.Max ->
      let acc = ref 0 in
      for v = 0 to n - 1 do
        if v <> u then begin
          let w = Instance.weight instance u v in
          if w > 0 then begin
            let d = dist.(v) in
            let d = if d = Bbc_graph.Csr.unreachable then m else d in
            if w * d > !acc then acc := w * d
          end
        end
      done;
      !acc

(* One SSSP per source: below this node count the pool fan-out costs
   more than the row of BFS/Dijkstra runs it saves. *)
let parallel_threshold = 64

(* [eval.sssp] counts single-source runs; the incr sits inside the pool
   workers, exercising Bbc_obs's per-domain shards. *)
let obs_sssp = Bbc_obs.counter "eval.sssp"

(* Cost of one source under the shared CSR snapshot, allocation-free:
   sweep into this domain's pooled row, fold the distances, then undo
   the sweep with the O(visited) dirty-list reset. *)
let csr_node_cost ?objective instance csr u =
  let ws = Bbc_graph.Workspace.get () in
  let scratch = Bbc_graph.Workspace.scratch ws in
  let row = Bbc_graph.Workspace.acquire ws (Instance.n instance) in
  Bbc_graph.Csr.sssp csr scratch ~src:u ~dist:row;
  let c = cost_of_distances ?objective instance u row in
  Bbc_graph.Csr.reset scratch row;
  Bbc_graph.Workspace.release_clean ws row;
  c

(* One node's cost: a flat snapshot and one pooled sweep, never the
   list-based digraph. *)
let node_cost ?objective instance config u =
  csr_node_cost ?objective instance (Config.to_csr instance config) u

(* Costs of [srcs.(lo .. hi-1)] under the shared snapshot, each handed
   to [emit] with its source: windows of at most [width] sources go
   through [Csr.sssp_batch] into pooled rows (the kernel is the
   snapshot's to pick), each row is folded, and the whole window is
   restored through [reset_rows].  Workers share the flat CSR read-only
   and rows never escape the call, so parallel domains never meet on
   the allocator. *)
let batched_costs ?objective ~width instance csr srcs ~emit lo hi =
  if width < 1 then invalid_arg "Eval.batched_costs: width must be >= 1";
  let n = Instance.n instance in
  let ws = Bbc_graph.Workspace.get () in
  let scratch = Bbc_graph.Workspace.scratch ws in
  let width = min width (hi - lo) in
  let rows = Bbc_graph.Workspace.acquire_many ws n width in
  let pos = ref lo in
  while !pos < hi do
    let k = min width (hi - !pos) in
    let window = Array.sub srcs !pos k in
    let rows_k = if k = width then rows else Array.sub rows 0 k in
    Bbc_graph.Csr.sssp_batch csr scratch ~srcs:window ~rows:rows_k;
    Array.iteri (fun i u -> emit u (cost_of_distances ?objective instance u rows.(i))) window;
    Bbc_graph.Csr.reset_rows scratch ~rows:rows_k;
    pos := !pos + k
  done;
  Bbc_graph.Workspace.release_clean_many ws rows;
  Bbc_obs.add obs_sssp (hi - lo)

(* One bit-parallel window per pool pull: coarse enough for jobs >= 2
   to pay for real source counts, fine enough to balance across
   domains.  jobs = 1 receives the whole range as a single chunk and
   [batched_costs] windows it internally over one reused row set. *)
let eval_chunk = Bbc_graph.Csr.batch_width

(* Every node's cost into a fresh array, one window per pool pull. *)
let costs_of_snapshot ?objective ~jobs instance csr =
  let n = Instance.n instance in
  let out = Array.make n 0 in
  Bbc_parallel.parallel_for_chunks ~jobs ~chunk:eval_chunk 0 n
    (batched_costs ?objective ~width:Bbc_graph.Csr.batch_width instance csr
       (Array.init n Fun.id)
       ~emit:(fun u c -> out.(u) <- c));
  out

(* Every node's cost, handed to [f] inside [span]: on a uniform k = 1
   functional profile from its own walk ([Functional.costs], one O(n)
   pass on the caller, no sweep), otherwise from sweeps of one snapshot
   on the pool.  The span records the jobs that ran. *)
let with_costs ~span ?(objective = Objective.Sum) ?jobs instance config f =
  let n = Instance.n instance in
  let closed = Functional.input instance config in
  let jobs =
    if Option.is_some closed then 1 else Bbc_parallel.jobs_for ?jobs ~threshold:parallel_threshold n
  in
  Bbc_obs.with_span span ~attrs:[ ("n", Bbc_obs.Int n); ("jobs", Bbc_obs.Int jobs) ] (fun () ->
      f
        (match closed with
        | Some succ -> Functional.costs ~objective instance succ
        | None -> costs_of_snapshot ~objective ~jobs instance (Config.to_csr instance config)))

let all_costs ?objective ?jobs instance config =
  with_costs ~span:"eval.all_costs" ?objective ?jobs instance config Fun.id

let social_cost ?objective ?jobs instance config =
  with_costs ~span:"eval.social_cost" ?objective ?jobs instance config (Array.fold_left ( + ) 0)
