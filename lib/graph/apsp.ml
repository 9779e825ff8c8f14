type t = { dist : int array array }

(* Below this size the per-window fan-out costs more than the row work. *)
let parallel_threshold = 128

let obs_sweeps = Bbc_obs.counter "apsp.sweeps"

(* Batched CSR sweeps: O(n (m + n)) on unit graphs, and every snapshot
   [Csr.sssp_batch] can window runs one bit-parallel traversal per
   [Csr.batch_width] sources, reading the adjacency once per window
   instead of once per row.  Each pool pull claims one window, so
   parallel domains split the matrix into batch-sized row bands; rows
   are independent, hence the result is identical for every job
   count. *)
let compute ?jobs g =
  let n = Digraph.n g in
  let jobs = Bbc_parallel.jobs_for ?jobs ~threshold:parallel_threshold n in
  Bbc_obs.with_span "apsp.compute"
    ~attrs:[ ("n", Bbc_obs.Int n); ("jobs", Bbc_obs.Int jobs) ] (fun () ->
      let csr = Csr.of_digraph g in
      Bbc_obs.add obs_sweeps n;
      let dist = Array.init n (fun _ -> Array.make n Csr.unreachable) in
      (* jobs = 1 hands the whole range over as one chunk; [sssp_batch]
         windows it internally. *)
      Bbc_parallel.parallel_for_chunks ~jobs ~chunk:Csr.batch_width 0 n (fun lo hi ->
          let srcs = Array.init (hi - lo) (fun i -> lo + i) in
          Csr.sssp_batch csr
            (Workspace.scratch (Workspace.get ()))
            ~srcs
            ~rows:(Array.sub dist lo (hi - lo)));
      { dist })

let distance t u v = t.dist.(u).(v)

let matrix t = t.dist
