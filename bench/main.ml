(* Reproduction harness.

   Default run: every experiment E1..E11 (quick parameters) — one section
   per figure/claim of the paper (see DESIGN.md's index) — followed by
   Bechamel micro-benchmarks of the core operations and the ablation
   pairs called out in DESIGN.md.

   Flags:
     --full         larger parameter sweeps (several minutes)
     --no-timing    skip the Bechamel section
     --timing-only  only the Bechamel section
     --ablations    include the ablation benchmarks (implied by --full)
     --jobs N       size the Bbc_parallel domain pool (default: BBC_JOBS
                    or the machine's recommended domain count)
     --json [FILE]  run the speedup + kernel +
                    observability-overhead + serving-layer sections and
                    write machine-readable results (default: the first
                    free bench/results/BENCH_N.json, so the perf
                    trajectory accumulates in a git-ignored directory)
     --metrics      enable Bbc_obs and print its summary on exit
     --trace-out F  enable Bbc_obs and write the JSONL trace to F
     e1 .. e11      run only the listed experiments *)

open Bechamel

let fmt = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                     *)

let willows_fixture =
  lazy
    (let p = Bbc.Willows.{ k = 2; h = 3; l = 1 } in
     Bbc.Willows.build p)

let big_willows_fixture =
  lazy
    (let p = Bbc.Willows.{ k = 2; h = 3; l = 6 } in
     Bbc.Willows.build p)

let random_config_fixture =
  lazy
    (let n = 40 and k = 2 in
     let inst = Bbc.Instance.uniform ~n ~k in
     let g = Bbc_graph.Generators.random_k_out (Bbc_prng.Splitmix.create 1) ~n ~k in
     (inst, Bbc.Config.of_graph g))

let big_graph_fixture =
  lazy (Bbc_graph.Generators.random_k_out (Bbc_prng.Splitmix.create 2) ~n:2000 ~k:3)

let fractional_fixture =
  lazy
    (let inst = Bbc.Instance.uniform ~n:8 ~k:1 in
     (inst, Bbc.Fractional.uniform_profile inst))

(* Naive best response (rebuilds the graph for every candidate subset):
   the ablation baseline for the d_{-u} decomposition. *)
let naive_best_response instance config u =
  List.fold_left
    (fun best s ->
      let c = Bbc.Eval.node_cost instance (Bbc.Config.with_strategy config u s) u in
      min best c)
    max_int
    (Bbc.Exhaustive.all_strategies instance u)

(* Micro benchmarks as (name, thunk) pairs: the same closure feeds the
   Bechamel timing run and the allocation measurement below, so the
   [minor_words]/[major_words] columns of the JSON describe exactly the
   timed computation. *)
let core_benchmarks () =
  [
    ( "eval/node_cost willows(n=46)",
      fun () ->
        let inst, config = Lazy.force willows_fixture in
        ignore (Bbc.Eval.node_cost inst config 0) );
    ( "eval/social_cost willows(n=46)",
      fun () ->
        let inst, config = Lazy.force willows_fixture in
        ignore (Bbc.Eval.social_cost inst config) );
    ( "best_response/exact (n=40,k=2)",
      fun () ->
        let inst, config = Lazy.force random_config_fixture in
        ignore (Bbc.Best_response.exact inst config 0) );
    ( "stability/is_stable willows(n=46)",
      fun () ->
        let inst, config = Lazy.force willows_fixture in
        ignore (Bbc.Stability.is_stable inst config) );
    ( "dynamics/one round (n=40,k=2)",
      fun () ->
        let inst, config = Lazy.force random_config_fixture in
        ignore
          (Bbc.Dynamics.run ~scheduler:Bbc.Dynamics.Round_robin ~max_rounds:1
             inst config) );
    ( "graph/scc (n=2000,k=3)",
      fun () -> ignore (Bbc_graph.Scc.compute (Lazy.force big_graph_fixture)) );
    ( "graph/bfs (n=2000,k=3)",
      fun () -> ignore (Bbc_fuzz.Reference.bfs (Lazy.force big_graph_fixture) 0) );
    ( "flow/min-cost unit flow (n=8)",
      fun () ->
        let inst, profile = Lazy.force fractional_fixture in
        ignore (Bbc.Fractional.pair_cost inst profile 0 5) );
  ]

let ablation_benchmarks () =
  [
    ( "ablation/BR via d_{-u} (n=40,k=2)",
      fun () ->
        let inst, config = Lazy.force random_config_fixture in
        ignore (Bbc.Best_response.exact inst config 0) );
    ( "ablation/BR naive rebuild (n=40,k=2)",
      fun () ->
        let inst, config = Lazy.force random_config_fixture in
        ignore (naive_best_response inst config 0) );
    ( "ablation/bfs on unit graph (n=2000)",
      fun () -> ignore (Bbc_fuzz.Reference.bfs (Lazy.force big_graph_fixture) 0) );
    ( "ablation/dijkstra on unit graph (n=2000)",
      fun () ->
        ignore (Bbc_fuzz.Reference.dijkstra (Lazy.force big_graph_fixture) 0) );
    ( "ablation/stability early-exit, unstable start",
      fun () ->
        let inst, _ = Lazy.force random_config_fixture in
        ignore (Bbc.Stability.is_stable inst (Bbc.Config.empty 40)) );
    ( "ablation/stability full scan, stable graph",
      fun () ->
        let inst, config = Lazy.force willows_fixture in
        ignore (Bbc.Stability.is_stable inst config) );
    (* Stability on the same fixture at two domain counts (both over
       the shared CSR snapshot, one node per chunk pull). *)
    ( "ablation/stability from-scratch 1 domain (n=126)",
      fun () ->
        let inst, config = Lazy.force big_willows_fixture in
        ignore (Bbc.Stability.is_stable ~jobs:1 inst config) );
    ( "ablation/stability from-scratch 4 domains (n=126)",
      fun () ->
        let inst, config = Lazy.force big_willows_fixture in
        ignore (Bbc.Stability.is_stable ~jobs:4 inst config) );
  ]

(* Allocation per call, measured with [Gc.quick_stat] deltas over a few
   repetitions (one warm-up call first, so lazy fixtures and workspace
   pools are paid for outside the window). *)
let alloc_words f =
  ignore (Sys.opaque_identity (f ()));
  let reps = 5 in
  let minor0, _, major0 = Gc.counters () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  let minor1, _, major1 = Gc.counters () in
  ( (minor1 -. minor0) /. float_of_int reps,
    (major1 -. major0) /. float_of_int reps )

(* Returns [(name, ns_per_run, minor_words, major_words)] so the JSON
   writer can replay them. *)
let run_benchmarks ~name entries =
  Format.fprintf fmt "@.%s@.%s@." (String.make 72 '=') name;
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let collected = ref [] in
  List.iter
    (fun (bname, f) ->
      let test = Test.make ~name:bname (Staged.stage f) in
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      let minor, major = alloc_words f in
      Hashtbl.iter
        (fun key ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Format.fprintf fmt "  %-48s %14.1f ns/run  %12.0f minor w/run@."
                key est minor;
              collected := (key, est, minor, major) :: !collected
          | _ -> Format.fprintf fmt "  %-48s (no estimate)@." key)
        analyzed)
    entries;
  Format.pp_print_flush fmt ();
  List.rev !collected

(* ------------------------------------------------------------------ *)
(* Sequential vs parallel speedup on the domain pool.                   *)

type speedup = {
  sp_name : string;
  seq_s : float;
  par_s : float;
  par_jobs : int;
  matches : bool;  (** parallel result identical to sequential *)
}

let time_best ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* Each entry runs the same computation with [jobs = 1] and with the
   pool engaged, times both, and checks the results are identical (the
   engine's determinism contract, asserted here and in the test suite;
   the speedup itself is reported, not gating). *)
let speedup_benchmarks ~par_jobs =
  let inst2000 = Bbc.Instance.uniform ~n:2000 ~k:3 in
  let cfg2000 = Bbc.Config.of_graph (Lazy.force big_graph_fixture) in
  let apsp_graph =
    Bbc_graph.Generators.random_k_out (Bbc_prng.Splitmix.create 7) ~n:512 ~k:3
  in
  let willows_inst, willows_cfg = Lazy.force big_willows_fixture in
  let exh_inst = Bbc.Instance.uniform ~n:6 ~k:1 in
  let run (name, reps, compute, equal) =
    let seq = compute 1 in
    let par = compute par_jobs in
    let seq_s = time_best ~reps (fun () -> compute 1) in
    let par_s = time_best ~reps (fun () -> compute par_jobs) in
    { sp_name = name; seq_s; par_s; par_jobs; matches = equal seq par }
  in
  let entry name reps f = (name, reps, f, Stdlib.( = )) in
  [
    entry "eval/all_costs (n=2000,k=3)" 3 (fun jobs ->
        `Costs (Bbc.Eval.all_costs ~jobs inst2000 cfg2000));
    entry "eval/social_cost (n=2000,k=3)" 3 (fun jobs ->
        `Cost (Bbc.Eval.social_cost ~jobs inst2000 cfg2000));
    entry "graph/apsp (n=512,k=3)" 2 (fun jobs ->
        `Matrix (Bbc_graph.Apsp.matrix (Bbc_graph.Apsp.compute ~jobs apsp_graph)));
    entry "stability/is_stable willows(n=126)" 2 (fun jobs ->
        `Stable (Bbc.Stability.is_stable ~jobs willows_inst willows_cfg));
    entry "exhaustive/count_equilibria (n=6,k=1)" 2 (fun jobs ->
        `Count (Bbc.Exhaustive.count_equilibria ~jobs exh_inst));
  ]
  |> List.map run

let print_speedups speedups =
  let jobs_seen =
    List.sort_uniq compare (List.map (fun s -> s.par_jobs) speedups)
  in
  Format.fprintf fmt "@.%s@.Sequential vs parallel (domain pool, jobs: %s)@."
    (String.make 72 '=')
    (String.concat ", " (List.map string_of_int jobs_seen));
  List.iter
    (fun s ->
      Format.fprintf fmt
        "  %-44s seq %8.4fs  par[j=%d] %8.4fs  speedup %5.2fx%s@." s.sp_name
        s.seq_s s.par_jobs s.par_s (s.seq_s /. s.par_s)
        (if s.matches then "" else "  [MISMATCH]"))
    speedups;
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* CSR kernels vs the list-graph baselines.  Each entry times the
   adjacency-list reference implementation against the flat-CSR pooled
   kernel on the same input, checks the results are identical, and
   records allocation per call on both sides — the perf gate
   (scripts/check_kernels.sh) asserts every [results_match] bit. *)

type kernel = {
  k_name : string;
  k_base_s : float;  (** list-graph / pre-CSR reference *)
  k_csr_s : float;  (** flat CSR + pooled workspace *)
  k_matches : bool;
  k_base_minor_w : float;
  k_csr_minor_w : float;
}

(* The pre-CSR best response: G_{-u} as a mutated adjacency-list copy,
   one allocated distance row per SSSP, and one [Array.copy] per DFS
   node.  Kept here (not in the library) as the ablation baseline for
   the pooled enumeration. *)
let legacy_exact_cost instance config u =
  let module D = Bbc_graph.Digraph in
  let module R = Bbc_fuzz.Reference in
  let g = Bbc.Config.to_graph instance config in
  D.remove_out_edges g u;
  let n = Bbc.Instance.n instance in
  let cache = Array.make n None in
  let row v =
    match cache.(v) with
    | Some d -> d
    | None ->
        let d = R.shortest g v in
        cache.(v) <- Some d;
        d
  in
  let merge_row cur v =
    let luv = Bbc.Instance.length instance u v in
    let d = Array.copy cur in
    let rv = row v in
    for x = 0 to n - 1 do
      if rv.(x) <> Bbc_graph.Csr.unreachable then begin
        let c = luv + rv.(x) in
        if c < d.(x) then d.(x) <- c
      end
    done;
    d
  in
  let base = Array.make n Bbc_graph.Csr.unreachable in
  base.(u) <- 0;
  let candidates = Array.of_list (Bbc.Best_response.candidate_targets instance u) in
  let best = ref (Bbc.Eval.cost_of_distances instance u base) in
  let rec dfs i budget cur =
    for j = i to Array.length candidates - 1 do
      let v = candidates.(j) in
      let c = Bbc.Instance.cost instance u v in
      if c <= budget then begin
        let cur' = merge_row cur v in
        let cost = Bbc.Eval.cost_of_distances instance u cur' in
        if cost < !best then best := cost;
        dfs (j + 1) (budget - c) cur'
      end
    done
  in
  dfs 0 (Bbc.Instance.budget instance u) base;
  !best

let kernel_benchmarks () =
  let module Csr = Bbc_graph.Csr in
  let module W = Bbc_graph.Workspace in
  let module R = Bbc_fuzz.Reference in
  let g = Lazy.force big_graph_fixture in
  let csr = Csr.of_digraph g in
  (* Weighted variant of the same topology (lengths 1..4), so the
     Dijkstra pair exercises the heap kernel rather than BFS. *)
  let gw =
    let rng = Bbc_prng.Splitmix.create 11 in
    let h = Bbc_graph.Digraph.create (Bbc_graph.Digraph.n g) in
    Bbc_graph.Digraph.iter_edges g (fun u v _ ->
        Bbc_graph.Digraph.add_edge h u v (1 + Bbc_prng.Splitmix.int rng 4));
    h
  in
  let csrw = Csr.of_digraph gw in
  (* Pure pooled sweep: distances land in a pooled row and are undone
     with the dirty-list reset, so steady state allocates nothing. *)
  let pooled_sweep snapshot () =
    let ws = W.get () in
    let scratch = W.scratch ws in
    let row = W.acquire ws (Csr.n snapshot) in
    Csr.sssp snapshot scratch ~src:0 ~dist:row;
    Csr.reset scratch row;
    W.release_clean ws row
  in
  let fresh_sweep snapshot =
    let dist = Array.make (Csr.n snapshot) Csr.unreachable in
    Csr.sssp snapshot (Csr.create_scratch ()) ~src:0 ~dist;
    dist
  in
  let br_inst, br_cfg = Lazy.force random_config_fixture in
  let apsp_graph =
    Bbc_graph.Generators.random_k_out (Bbc_prng.Splitmix.create 7) ~n:256 ~k:3
  in
  let run (name, reps, base, csrf, check) =
    let matches = check () in
    let k_base_s = time_best ~reps base and k_csr_s = time_best ~reps csrf in
    let k_base_minor_w, _ = alloc_words base in
    let k_csr_minor_w, _ = alloc_words csrf in
    { k_name = name; k_base_s; k_csr_s; k_matches = matches; k_base_minor_w; k_csr_minor_w }
  in
  List.map run
    [
      ( "graph/bfs (n=2000,k=3)", 40,
        (fun () -> ignore (R.bfs g 0)),
        pooled_sweep csr,
        fun () -> R.bfs g 0 = fresh_sweep csr );
      ( "graph/dijkstra (n=2000,k=3,weighted)", 40,
        (fun () -> ignore (R.dijkstra gw 0)),
        pooled_sweep csrw,
        fun () -> R.dijkstra gw 0 = fresh_sweep csrw );
      ( "graph/apsp (n=256,k=3)", 3,
        (fun () -> ignore (R.floyd_warshall apsp_graph)),
        (fun () -> ignore (Bbc_graph.Apsp.compute apsp_graph)),
        fun () ->
          R.floyd_warshall apsp_graph
          = Bbc_graph.Apsp.matrix (Bbc_graph.Apsp.compute apsp_graph) );
      ( "best_response/exact (n=40,k=2)", 10,
        (fun () -> ignore (legacy_exact_cost br_inst br_cfg 0)),
        (fun () -> ignore (Bbc.Best_response.exact br_inst br_cfg 0)),
        fun () ->
          legacy_exact_cost br_inst br_cfg 0
          = (Bbc.Best_response.exact br_inst br_cfg 0).cost );
    ]

let print_kernels kernels =
  Format.fprintf fmt "@.%s@.CSR kernels vs list-graph baselines@."
    (String.make 72 '=');
  List.iter
    (fun k ->
      Format.fprintf fmt
        "  %-40s base %10.6fs  csr %10.6fs  speedup %5.2fx  minor w %8.0f -> %-8.0f%s@."
        k.k_name k.k_base_s k.k_csr_s
        (k.k_base_s /. k.k_csr_s)
        k.k_base_minor_w k.k_csr_minor_w
        (if k.k_matches then "" else "  [MISMATCH]"))
    kernels;
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Bit-parallel multi-source BFS ([Csr.sssp_batch]) vs the per-source
   scalar sweeps it replaced, on the same snapshot and pooled scratch.
   Every row carries a differential bit ([mb_matches]); the apsp row is
   the one [scripts/check_kernels.sh] holds to the >= 4x floor against
   BENCH_2's recorded per-source time. *)

type msbfs_bench = {
  mb_name : string;
  mb_scalar_s : float;  (** one [Csr.sssp] per source *)
  mb_batched_s : float;  (** [Csr.sssp_batch] windows *)
  mb_matches : bool;
}

let msbfs_benchmarks () =
  let module Csr = Bbc_graph.Csr in
  let module W = Bbc_graph.Workspace in
  let apsp_graph =
    Bbc_graph.Generators.random_k_out (Bbc_prng.Splitmix.create 7) ~n:512 ~k:3
  in
  let csr = Csr.of_digraph apsp_graph in
  let n = Csr.n csr in
  let srcs = Array.init n Fun.id in
  let scratch () = W.scratch (W.get ()) in
  let fresh () = Array.init n (fun _ -> Array.make n Bbc_graph.Csr.unreachable) in
  let scalar_matrix ?ban () =
    let s = scratch () in
    let dist = fresh () in
    for src = 0 to n - 1 do
      Csr.sssp ?ban csr s ~src ~dist:dist.(src)
    done;
    dist
  in
  let batched_matrix ?ban () =
    let s = scratch () in
    let dist = fresh () in
    Csr.sssp_batch ?ban csr s ~srcs ~rows:dist;
    dist
  in
  let fresh32 () = Array.init n (fun _ -> Csr.create_dist32 n) in
  let scalar_matrix32 () =
    let s = scratch () in
    let dist = fresh32 () in
    for src = 0 to n - 1 do
      Csr.sssp32 csr s ~src ~dist:dist.(src)
    done;
    dist
  in
  let batched_matrix32 () =
    let s = scratch () in
    let dist = fresh32 () in
    Csr.sssp_batch32 csr s ~srcs ~rows:dist;
    dist
  in
  let inst2000 = Bbc.Instance.uniform ~n:2000 ~k:3 in
  let cfg2000 = Bbc.Config.of_graph (Lazy.force big_graph_fixture) in
  let ecsr = Bbc.Config.to_csr inst2000 cfg2000 in
  let scalar_costs () =
    Array.init (Bbc.Instance.n inst2000) (fun u ->
        Bbc.Eval.csr_node_cost inst2000 ecsr u)
  in
  let batched_costs () = Bbc.Eval.all_costs ~jobs:1 inst2000 cfg2000 in
  let run (name, reps, scalar, batched, check) =
    let mb_matches = check () in
    let mb_scalar_s = time_best ~reps scalar
    and mb_batched_s = time_best ~reps batched in
    { mb_name = name; mb_scalar_s; mb_batched_s; mb_matches }
  in
  List.map run
    [
      ( "msbfs/apsp (n=512,k=3)", 5,
        (fun () -> ignore (scalar_matrix ())),
        (fun () -> ignore (batched_matrix ())),
        fun () -> scalar_matrix () = batched_matrix () );
      ( "msbfs/ban sweep (n=512,k=3,ban=0)", 5,
        (fun () -> ignore (scalar_matrix ~ban:0 ())),
        (fun () -> ignore (batched_matrix ~ban:0 ())),
        fun () -> scalar_matrix ~ban:0 () = batched_matrix ~ban:0 () );
      ( "msbfs/apsp32 (n=512,k=3)", 5,
        (fun () -> ignore (scalar_matrix32 ())),
        (fun () -> ignore (batched_matrix32 ())),
        fun () -> scalar_matrix32 () = batched_matrix32 () );
      ( "msbfs/eval.all_costs (n=2000,k=3)", 3,
        (fun () -> ignore (scalar_costs ())),
        (fun () -> ignore (batched_costs ())),
        fun () -> scalar_costs () = batched_costs () );
    ]

let print_msbfs msbfs =
  Format.fprintf fmt "@.%s@.Multi-source bit-parallel BFS vs per-source sweeps@."
    (String.make 72 '=');
  List.iter
    (fun m ->
      Format.fprintf fmt
        "  %-40s scalar %10.6fs  batched %10.6fs  speedup %5.2fx%s@." m.mb_name
        m.mb_scalar_s m.mb_batched_s
        (m.mb_scalar_s /. m.mb_batched_s)
        (if m.mb_matches then "" else "  [MISMATCH]"))
    msbfs;
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Observability overhead: the instrumented library hot paths vs local
   uninstrumented copies, with Bbc_obs disabled.  Verifies the
   "disabled = one branch" guarantee (acceptance: within noise, < 3%). *)

type overhead = {
  ov_name : string;
  base_s : float;  (** uninstrumented copy *)
  inst_s : float;  (** instrumented library version, observability off *)
}

(* Uninstrumented [Eval.all_costs]: same CSR snapshot, same pooled
   bit-parallel [Csr.sssp_batch] windows and batch-sized chunk fan-out
   as the library's batched path — no span, no counter.  (Must mirror
   the library shape: timing the legacy per-source sweep here would
   make the <3% disabled-overhead gate compare different algorithms.) *)
let plain_all_costs inst config =
  let n = Bbc.Instance.n inst in
  let jobs = Bbc_parallel.jobs_for ~threshold:64 n in
  let csr = Bbc.Config.to_csr inst config in
  let costs = Array.make n 0 in
  Bbc_parallel.parallel_for_chunks ~jobs ~chunk:Bbc_graph.Csr.batch_width 0 n
    (fun lo hi ->
      let ws = Bbc_graph.Workspace.get () in
      let scratch = Bbc_graph.Workspace.scratch ws in
      let width = min Bbc_graph.Csr.batch_width (hi - lo) in
      let rows = Bbc_graph.Workspace.acquire_many ws n width in
      let pos = ref lo in
      while !pos < hi do
        let base = !pos in
        let k = min width (hi - base) in
        let srcs = Array.init k (fun i -> base + i) in
        let rows_k = if k = width then rows else Array.sub rows 0 k in
        Bbc_graph.Csr.sssp_batch csr scratch ~srcs ~rows:rows_k;
        for i = 0 to k - 1 do
          costs.(base + i) <- Bbc.Eval.cost_of_distances inst (base + i) rows.(i)
        done;
        Bbc_graph.Csr.reset_rows scratch ~rows:rows_k;
        pos := base + k
      done;
      Bbc_graph.Workspace.release_clean_many ws rows);
  costs

(* Uninstrumented [Apsp.compute] (same batched CSR sweeps and
   batch-sized chunking). *)
let plain_apsp g =
  let n = Bbc_graph.Digraph.n g in
  let jobs = Bbc_parallel.jobs_for ~threshold:128 n in
  let csr = Bbc_graph.Csr.of_digraph g in
  let dist = Array.init n (fun _ -> Array.make n Bbc_graph.Csr.unreachable) in
  Bbc_parallel.parallel_for_chunks ~jobs ~chunk:Bbc_graph.Csr.batch_width 0 n
    (fun lo hi ->
      let srcs = Array.init (hi - lo) (fun i -> lo + i) in
      Bbc_graph.Csr.sssp_batch csr
        (Bbc_graph.Workspace.scratch (Bbc_graph.Workspace.get ()))
        ~srcs
        ~rows:(Array.sub dist lo (hi - lo)));
  dist

(* Interleave base/instrumented reps so machine-load drift hits both
   sides of each pair equally, then take the median per-pair ratio —
   robust against the multiplicative noise of a shared container,
   where best-of-N on each side independently is not. *)
let time_pair ~reps base inst =
  let time f =
    (* Settle the heap first: otherwise a major slice triggered by the
       previous runner's garbage lands inside this runner's window, and
       the GC debt shows up as phantom overhead on whoever runs second. *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  ignore (Sys.opaque_identity (base ()));
  ignore (Sys.opaque_identity (inst ()));
  let bs = Array.make reps 0.0 and ratios = Array.make reps 0.0 in
  for r = 0 to reps - 1 do
    (* Swap who goes first each rep: the second runner of a pair sees a
       warmer allocator, and a fixed order turns that into bias. *)
    let b, i =
      if r land 1 = 0 then
        let b = time base in
        (b, time inst)
      else
        let i = time inst in
        (time base, i)
    in
    bs.(r) <- b;
    ratios.(r) <- i /. b
  done;
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let b = median bs in
  (b, b *. median ratios)

let overhead_benchmarks () =
  let was_enabled = Bbc_obs.enabled () in
  Bbc_obs.disable ();
  let inst2000 = Bbc.Instance.uniform ~n:2000 ~k:3 in
  let cfg2000 = Bbc.Config.of_graph (Lazy.force big_graph_fixture) in
  let apsp_graph =
    Bbc_graph.Generators.random_k_out (Bbc_prng.Splitmix.create 7) ~n:512 ~k:3
  in
  let eval_b, eval_i =
    time_pair ~reps:15
      (fun () -> plain_all_costs inst2000 cfg2000)
      (fun () -> Bbc.Eval.all_costs inst2000 cfg2000)
  in
  let apsp_b, apsp_i =
    time_pair ~reps:15
      (fun () -> plain_apsp apsp_graph)
      (fun () -> Bbc_graph.Apsp.compute apsp_graph)
  in
  let results =
    [
      { ov_name = "eval/all_costs (n=2000,k=3)"; base_s = eval_b; inst_s = eval_i };
      { ov_name = "graph/apsp (n=512,k=3)"; base_s = apsp_b; inst_s = apsp_i };
    ]
  in
  if was_enabled then Bbc_obs.enable ();
  results

let print_overheads overheads =
  Format.fprintf fmt "@.%s@.Observability overhead (disabled mode vs uninstrumented)@."
    (String.make 72 '=');
  List.iter
    (fun o ->
      Format.fprintf fmt "  %-44s base %8.4fs  instrumented %8.4fs  overhead %+5.1f%%@."
        o.ov_name o.base_s o.inst_s (100.0 *. ((o.inst_s /. o.base_s) -. 1.0)))
    overheads;
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Large-n engine: the streaming CSR builders and the landmark
   social-cost estimator.  Two sub-sections: small-n equivalence bits
   (streaming builder bit-identical to the Digraph route; estimator
   exact at a full sample) and scale rows (build ns/node, allocated
   words/node, landmark-sweep time and the estimate itself) up to
   n = 10^5.  scripts/check_bigbench.sh gates on both. *)

type bigbench_equiv = {
  be_family : string;
  be_streaming_matches : bool;  (** streaming CSR = of_digraph CSR, bit for bit *)
  be_estimator_exact : bool;  (** L = n estimate equals [Eval.social_cost] *)
}

type bigbench_row = {
  bb_family : string;
  bb_n : int;
  bb_k : int;
  bb_landmarks : int;
  bb_build_s : float;
  bb_build_ns_per_node : float;
  bb_words_per_node : float;  (** words allocated per node during the build *)
  bb_sweep_s : float;
  bb_value : float;
  bb_bound : float;
  bb_exact : bool;
  bb_completed : bool;
}

let bigbench_equivalence () =
  List.map
    (fun name ->
      let n = 60 and k = 2 and seed = 3 in
      let fam = Option.get (Bbc.Gen_instance.family_of_name name) in
      let inst, csr = Bbc.Gen_instance.streaming fam ~n ~k ~seed in
      let rcsr = Bbc.Gen_instance.streaming_reference_csr fam ~n ~k ~seed in
      let rinst, config = Bbc.Gen_instance.streaming_reference fam ~n ~k ~seed in
      let exact = Bbc.Eval.social_cost rinst config in
      let e =
        Bbc.Approx.social_cost ~landmarks:(Bbc.Instance.n inst) ~seed:1 inst csr
      in
      {
        be_family = name;
        be_streaming_matches =
          Bbc_graph.Csr.equal csr rcsr
          && Bbc_graph.Csr.equal csr (Bbc.Config.to_csr rinst config);
        be_estimator_exact =
          e.Bbc.Approx.exact && e.Bbc.Approx.value = float_of_int exact;
      })
    Bbc.Catalog.streaming_names

let bigbench_scale_rows () =
  let row (family, n, k, landmarks) =
    let fam = Option.get (Bbc.Gen_instance.family_of_name family) in
    match
      Gc.full_major ();
      let a0 = Gc.allocated_bytes () in
      let t0 = Unix.gettimeofday () in
      let inst, csr = Bbc.Gen_instance.streaming fam ~n ~k ~seed:1 in
      let t1 = Unix.gettimeofday () in
      let a1 = Gc.allocated_bytes () in
      let t2 = Unix.gettimeofday () in
      let e = Bbc.Approx.social_cost ~landmarks ~seed:1 inst csr in
      let t3 = Unix.gettimeofday () in
      (t1 -. t0, (a1 -. a0) /. 8.0, t3 -. t2, e)
    with
    | build_s, words, sweep_s, e ->
        {
          bb_family = family;
          bb_n = n;
          bb_k = k;
          bb_landmarks = e.Bbc.Approx.landmarks;
          bb_build_s = build_s;
          bb_build_ns_per_node = build_s *. 1e9 /. float_of_int n;
          bb_words_per_node = words /. float_of_int n;
          bb_sweep_s = sweep_s;
          bb_value = e.Bbc.Approx.value;
          bb_bound = e.Bbc.Approx.bound;
          bb_exact = e.Bbc.Approx.exact;
          bb_completed = true;
        }
    | exception exn ->
        Format.fprintf fmt "  bigbench %s n=%d failed: %s@." family n
          (Printexc.to_string exn);
        {
          bb_family = family;
          bb_n = n;
          bb_k = k;
          bb_landmarks = landmarks;
          bb_build_s = 0.0;
          bb_build_ns_per_node = 0.0;
          bb_words_per_node = 0.0;
          bb_sweep_s = 0.0;
          bb_value = 0.0;
          bb_bound = 0.0;
          bb_exact = false;
          bb_completed = false;
        }
  in
  List.map row
    [
      ("ring", 10_000, 1, 32);
      ("circulant", 10_000, 3, 32);
      ("random", 10_000, 2, 32);
      ("random", 100_000, 2, 64);
    ]

let print_bigbench equiv rows =
  Format.fprintf fmt "@.%s@.Large-n engine (streaming build + landmark estimate)@."
    (String.make 72 '=');
  List.iter
    (fun e ->
      Format.fprintf fmt "  %-12s streaming=of_digraph %b  L=n exact %b%s@."
        e.be_family e.be_streaming_matches e.be_estimator_exact
        (if e.be_streaming_matches && e.be_estimator_exact then "" else "  [MISMATCH]"))
    equiv;
  List.iter
    (fun r ->
      Format.fprintf fmt
        "  %-10s n=%-7d build %7.1f ms (%6.0f ns/node, %5.1f w/node)  sweep %8.1f ms (L=%d)  cost %.6g +- %.3g%s@."
        r.bb_family r.bb_n (r.bb_build_s *. 1e3) r.bb_build_ns_per_node
        r.bb_words_per_node (r.bb_sweep_s *. 1e3) r.bb_landmarks r.bb_value
        r.bb_bound
        (if r.bb_completed then "" else "  [FAILED]"))
    rows;
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Serving layer: a real `bbc serve --tcp` daemon spawned as a child
   process (the bench has live domains, so forking in-process is off
   the table — create_process is fork+exec, which is safe), hammered by
   the event-loop load generator over TCP.  The generator's consistency
   cross-check (identical read-only queries must get byte-identical
   answers) rides along as the correctness bit. *)

(* The CLI binary sits next to the bench in the build tree
   (_build/default/{bench,bin}); BBC_CLI overrides for odd layouts. *)
let cli_binary () =
  match Sys.getenv_opt "BBC_CLI" with
  | Some p -> p
  | None ->
      let root = Filename.dirname (Filename.dirname Sys.executable_name) in
      Filename.concat (Filename.concat root "bin") "bbc_cli.exe"

(* Spawn `bbc serve --tcp 127.0.0.1:0` and parse the resolved
   ephemeral port from its "listening on tcp:HOST:PORT" stdout line. *)
let start_server () =
  let exe = cli_binary () in
  if not (Sys.file_exists exe) then Error (exe ^ " not built")
  else begin
    let out_r, out_w = Unix.pipe ~cloexec:false () in
    let pid =
      Unix.create_process exe
        [| exe; "serve"; "--tcp"; "127.0.0.1:0" |]
        Unix.stdin out_w Unix.stderr
    in
    Unix.close out_w;
    let ic = Unix.in_channel_of_descr out_r in
    match input_line ic with
    | line -> (
        let prefix = "listening on tcp:" in
        let plen = String.length prefix in
        if String.length line > plen && String.sub line 0 plen = prefix then
          match
            Bbc_server.Net.parse_tcp
              (String.sub line plen (String.length line - plen))
          with
          | Ok (host, port) -> Ok (pid, ic, Bbc_server.Net.Tcp (host, port))
          | Error e ->
              ignore (Unix.waitpid [] pid);
              Error ("unparseable listening line: " ^ e)
        else begin
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
          ignore (Unix.waitpid [] pid);
          Error ("unexpected server output: " ^ line)
        end)
    | exception End_of_file ->
        ignore (Unix.waitpid [] pid);
        Error "server exited before listening"
  end

let stop_server (pid, ic, endpoint) =
  (match Bbc_server.Loadgen.request_shutdown ~endpoint with
  | Ok () -> ()
  | Error _ -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ()));
  let ok = match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false in
  close_in_noerr ic;
  ok

let server_benchmarks ~full =
  let total = if full then 20_000 else 5_000 in
  let conns = 64 and sessions = 8 in
  match start_server () with
  | Error e ->
      Format.fprintf fmt "  serve bench: %s@." e;
      []
  | Ok ((_, _, endpoint) as srv) -> (
      let r =
        Bbc_server.Loadgen.run ~endpoint ~conns ~total ~sessions ~name:"ring" ~n:24 ()
      in
      let clean = stop_server srv in
      match r with
      | Ok s ->
          if not clean then Format.fprintf fmt "  serve bench: unclean server exit@.";
          [ (Printf.sprintf "serve/tcp ring(n=24) conns=%d" conns, s) ]
      | Error e ->
          Format.fprintf fmt "  serve bench failed: %s@." e;
          [])

let print_servers entries =
  Format.fprintf fmt "@.%s@.Serving layer (bbc serve --tcp, TCP loadgen)@."
    (String.make 72 '=');
  List.iter
    (fun (name, (s : Bbc_server.Loadgen.summary)) ->
      Format.fprintf fmt
        "  %-40s %8.0f req/s  p50 %6.3f ms  p99 %6.3f ms  errors %d%s@." name
        s.req_per_s s.p50_ms s.p99_ms
        (s.errors + s.protocol_errors)
        (if s.consistent then "" else "  [INCONSISTENT]"))
    entries;
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Campaign runner: throughput (runs/s) over a fixed spec, the cost of
   per-chunk checkpointing, and a jobs ablation alongside the
   recommended-domains figure the JSON already carries.  Every run of
   the same spec must render byte-identical report.json regardless of
   jobs or chunk size — that determinism contract is asserted here, not
   just timed. *)

type campaign_bench = {
  ca_units : int;
  ca_checkpoint_every : int;
  ca_overhead_pct : float;
      (** per-chunk checkpointing vs one final chunk, at jobs=1 *)
  ca_matches : bool;  (** report bytes identical across all runs *)
  ca_rows : (int * float * float) list;  (** jobs, elapsed s, runs/s *)
}

let campaign_bench_spec ~units : Bbc_campaign.Spec.t =
  {
    name = "bench";
    seed = 17;
    seeds_per_point = units;
    max_rounds = 60;
    points =
      [
        {
          generator = Bbc.Trial.Sparse { zero_pct = 50; max_weight = 3 };
          n = 12;
          k = 2;
          h = 2;
          l = 3;
        };
      ];
    inits = [ Bbc.Trial.Random_start ];
    schedulers = [ Bbc.Trial.Round_robin ];
    policies = [ Bbc.Trial.Exact ];
    objectives = [ Bbc.Objective.Sum ];
  }

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_campaign_dir f =
  let base = Filename.temp_file "bbc-bench-campaign" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  Fun.protect
    ~finally:(fun () -> try rm_rf base with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f base)

(* One fresh-directory campaign run; returns wall time and report bytes. *)
let run_campaign ~jobs ~checkpoint_every spec =
  with_temp_campaign_dir (fun dir ->
      let opts =
        {
          Bbc_campaign.Runner.default_opts with
          jobs = Some jobs;
          checkpoint_every;
        }
      in
      let t0 = Unix.gettimeofday () in
      match Bbc_campaign.Runner.run opts ~dir spec with
      | Error e -> Error e
      | Ok o ->
          let dt = Unix.gettimeofday () -. t0 in
          let report =
            In_channel.with_open_bin o.report_path In_channel.input_all
          in
          Ok (dt, report))

let campaign_benchmarks ~full =
  let units = if full then 600 else 150 in
  let checkpoint_every = 16 in
  let spec = campaign_bench_spec ~units in
  let jobs_list =
    List.sort_uniq compare [ 1; 2; max 2 (Domain.recommended_domain_count ()) ]
  in
  (* Overhead baseline: same spec, jobs=1, a single final chunk — the
     delta against checkpoint_every=16 is pure checkpoint I/O (fsync'd
     temp-file renames). *)
  match run_campaign ~jobs:1 ~checkpoint_every:units spec with
  | Error e ->
      Format.fprintf fmt "  campaign bench: %s@." e;
      None
  | Ok (t_single, ref_report) -> (
      let rows =
        List.filter_map
          (fun jobs ->
            match run_campaign ~jobs ~checkpoint_every spec with
            | Error e ->
                Format.fprintf fmt "  campaign bench (jobs=%d): %s@." jobs e;
                None
            | Ok (t, report) ->
                Some (jobs, t, float_of_int units /. t, report))
          jobs_list
      in
      match rows with
      | [] -> None
      | _ ->
          let matches =
            List.for_all (fun (_, _, _, r) -> String.equal r ref_report) rows
          in
          let t_chunked =
            match List.find_opt (fun (j, _, _, _) -> j = 1) rows with
            | Some (_, t, _, _) -> t
            | None -> t_single
          in
          Some
            {
              ca_units = units;
              ca_checkpoint_every = checkpoint_every;
              ca_overhead_pct = 100.0 *. ((t_chunked /. t_single) -. 1.0);
              ca_matches = matches;
              ca_rows = List.map (fun (j, t, rps, _) -> (j, t, rps)) rows;
            })

let print_campaign = function
  | None -> ()
  | Some c ->
      Format.fprintf fmt
        "@.%s@.Campaign runner (%d units, sparse(n=12,k=2), checkpoint every \
         %d)@."
        (String.make 72 '=')
        c.ca_units c.ca_checkpoint_every;
      List.iter
        (fun (jobs, t, rps) ->
          Format.fprintf fmt "  jobs=%-3d %8.3fs  %8.0f runs/s@." jobs t rps)
        c.ca_rows;
      Format.fprintf fmt "  checkpoint overhead: %.2f%% (jobs=1)%s@."
        c.ca_overhead_pct
        (if c.ca_matches then "  reports identical across runs"
         else "  [REPORTS DIFFER]");
      Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Machine-readable output (BENCH_*.json); format documented in
   DESIGN.md and README.md.                                            *)

(* First free bench/results/BENCH_N.json, so successive runs accumulate
   a perf trajectory instead of silently overwriting the last one.  The
   directory is git-ignored; falls back to the cwd when it cannot be
   created (e.g. the binary runs outside a checkout). *)
let next_bench_path () =
  let dir = Filename.concat "bench" "results" in
  let dir =
    try
      if not (Sys.file_exists "bench") then Unix.mkdir "bench" 0o755;
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      dir
    with Unix.Unix_error _ -> Filename.current_dir_name
  in
  (* An index is taken if it exists in the results directory *or* at the
     repo root — promoted snapshots (BENCH_1.json, ...) live there, and
     the next run must continue the shared numbering. *)
  let rec go i =
    let name = Printf.sprintf "BENCH_%d.json" i in
    let p = Filename.concat dir name in
    if Sys.file_exists p || Sys.file_exists name then go (i + 1) else p
  in
  go 1

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let write_json ~path ~micro ~kernels ~msbfs ~speedups ~overheads ~bigbench
    ~servers ~campaign =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"version\": 4,\n";
  out "  \"jobs\": %d,\n" (Bbc_parallel.default_jobs ());
  out "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"git_rev\": %S,\n" (git_rev ());
  out "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns, minor_w, major_w) ->
      out
        "    {\"name\": %S, \"ns_per_run\": %.1f, \"minor_words\": %.0f, \
         \"major_words\": %.0f}%s\n"
        name ns minor_w major_w
        (if i = List.length micro - 1 then "" else ","))
    micro;
  out "  ],\n";
  out "  \"kernels\": [\n";
  List.iteri
    (fun i k ->
      out
        "    {\"name\": %S, \"baseline_s\": %.6f, \"csr_s\": %.6f, \
         \"speedup\": %.3f, \"results_match\": %b, \
         \"baseline_minor_words\": %.0f, \"csr_minor_words\": %.0f}%s\n"
        k.k_name k.k_base_s k.k_csr_s
        (k.k_base_s /. k.k_csr_s)
        k.k_matches k.k_base_minor_w k.k_csr_minor_w
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  out "  ],\n";
  out "  \"msbfs\": [\n";
  List.iteri
    (fun i m ->
      out
        "    {\"name\": %S, \"scalar_s\": %.6f, \"batched_s\": %.6f, \
         \"speedup\": %.3f, \"results_match\": %b}%s\n"
        m.mb_name m.mb_scalar_s m.mb_batched_s
        (m.mb_scalar_s /. m.mb_batched_s)
        m.mb_matches
        (if i = List.length msbfs - 1 then "" else ","))
    msbfs;
  out "  ],\n";
  out "  \"speedup\": [\n";
  List.iteri
    (fun i s ->
      out
        "    {\"name\": %S, \"jobs\": %d, \"sequential_s\": %.6f, \
         \"parallel_s\": %.6f, \"speedup\": %.3f, \"results_match\": %b}%s\n"
        s.sp_name s.par_jobs s.seq_s s.par_s (s.seq_s /. s.par_s) s.matches
        (if i = List.length speedups - 1 then "" else ","))
    speedups;
  out "  ],\n";
  out "  \"obs_overhead\": [\n";
  List.iteri
    (fun i o ->
      out
        "    {\"name\": %S, \"baseline_s\": %.6f, \"instrumented_s\": %.6f, \
         \"overhead_pct\": %.2f}%s\n"
        o.ov_name o.base_s o.inst_s
        (100.0 *. ((o.inst_s /. o.base_s) -. 1.0))
        (if i = List.length overheads - 1 then "" else ","))
    overheads;
  out "  ],\n";
  let equiv, scale = bigbench in
  out "  \"bigbench\": {\n";
  out "    \"equivalence\": [\n";
  List.iteri
    (fun i e ->
      out
        "      {\"family\": %S, \"streaming_matches_digraph\": %b, \
         \"estimator_exact_at_full_sample\": %b}%s\n"
        e.be_family e.be_streaming_matches e.be_estimator_exact
        (if i = List.length equiv - 1 then "" else ","))
    equiv;
  out "    ],\n";
  out "    \"scale\": [\n";
  List.iteri
    (fun i r ->
      out
        "      {\"family\": %S, \"n\": %d, \"k\": %d, \"landmarks\": %d, \
         \"build_s\": %.6f, \"build_ns_per_node\": %.1f, \
         \"words_per_node\": %.1f, \"sweep_s\": %.6f, \"estimate\": %.1f, \
         \"bound\": %.1f, \"exact\": %b, \"completed\": %b}%s\n"
        r.bb_family r.bb_n r.bb_k r.bb_landmarks r.bb_build_s
        r.bb_build_ns_per_node r.bb_words_per_node r.bb_sweep_s r.bb_value
        r.bb_bound r.bb_exact r.bb_completed
        (if i = List.length scale - 1 then "" else ","))
    scale;
  out "    ]\n";
  out "  },\n";
  out "  \"server\": [\n";
  List.iteri
    (fun i (name, (s : Bbc_server.Loadgen.summary)) ->
      out
        "    {\"name\": %S, \"conns\": %d, \"sessions\": %d, \
         \"requests\": %d, \"req_per_s\": %.1f, \"p50_ms\": %.4f, \
         \"p99_ms\": %.4f, \"errors\": %d, \"protocol_errors\": %d, \
         \"consistent\": %b}%s\n"
        name s.conns s.sessions s.requests s.req_per_s s.p50_ms s.p99_ms
        s.errors s.protocol_errors s.consistent
        (if i = List.length servers - 1 then "" else ","))
    servers;
  out "  ],\n";
  (match campaign with
  | None -> out "  \"campaign\": null\n"
  | Some c ->
      out "  \"campaign\": {\n";
      out "    \"units\": %d,\n" c.ca_units;
      out "    \"checkpoint_every\": %d,\n" c.ca_checkpoint_every;
      out "    \"checkpoint_overhead_pct\": %.2f,\n" c.ca_overhead_pct;
      out "    \"reports_identical\": %b,\n" c.ca_matches;
      out "    \"jobs_ablation\": [\n";
      List.iteri
        (fun i (jobs, t, rps) ->
          out "      {\"jobs\": %d, \"elapsed_s\": %.6f, \"runs_per_s\": %.1f}%s\n"
            jobs t rps
            (if i = List.length c.ca_rows - 1 then "" else ","))
        c.ca_rows;
      out "    ]\n";
      out "  }\n");
  out "}\n";
  close_out oc;
  Format.fprintf fmt "wrote %s@." path

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Pull "--jobs N", "--json [FILE]" and the observability flags out of
     the argument list before experiment-id filtering sees them. *)
  let jobs_arg = ref None
  and json_arg = ref None
  and metrics_arg = ref false
  and trace_arg = ref None in
  let rec strip = function
    | [] -> []
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 ->
            jobs_arg := Some j;
            strip rest
        | _ ->
            prerr_endline "bench: --jobs expects a positive integer";
            exit 2)
    | "--json" :: v :: rest when String.length v > 0 && v.[0] <> '-'
                                 && Bbc_experiments.Registry.find v = None ->
        json_arg := Some v;
        strip rest
    | "--json" :: rest ->
        json_arg := Some (next_bench_path ());
        strip rest
    | "--metrics" :: rest ->
        metrics_arg := true;
        strip rest
    | "--trace-out" :: v :: rest ->
        trace_arg := Some v;
        strip rest
    | a :: rest -> a :: strip rest
  in
  let args = strip args in
  Option.iter Bbc_parallel.set_default_jobs !jobs_arg;
  let trace_oc = Option.map open_out !trace_arg in
  if !metrics_arg || trace_oc <> None then Bbc_obs.enable ();
  Option.iter (fun oc -> Bbc_obs.add_sink (Bbc_obs.jsonl_sink oc)) trace_oc;
  let has flag = List.mem flag args in
  let full = has "--full" in
  let quick = not full in
  let timing_only = has "--timing-only" in
  let no_timing = has "--no-timing" in
  let selected =
    List.filter_map Bbc_experiments.Registry.find args
  in
  if not timing_only then begin
    Format.fprintf fmt
      "BBC games reproduction harness — Laoutaris et al., PODC 2008@.";
    Format.fprintf fmt "mode: %s (jobs=%d)@."
      (if full then "full" else "quick")
      (Bbc_parallel.default_jobs ());
    match selected with
    | [] -> Bbc_experiments.Registry.run_all ~quick fmt
    | entries -> List.iter (fun (e : Bbc_experiments.Registry.entry) -> e.run ~quick fmt) entries
  end;
  let micro = ref [] in
  if (not no_timing) && selected = [] then begin
    micro := run_benchmarks ~name:"Micro-benchmarks (Bechamel)" (core_benchmarks ());
    if full || has "--ablations" || timing_only then
      micro :=
        !micro
        @ run_benchmarks ~name:"Ablations (DESIGN.md section 5)" (ablation_benchmarks ())
  end;
  (match !json_arg with
  | None -> ()
  | Some path ->
      (* Per-jobs ablation: jobs in {2, 4} (the EXPERIMENTS.md rechunk
         table; seq rows carry jobs=1), plus the configured pool width
         and the runtime's recommended domain count when they differ
         (the JSON carries both figures, so regressions in either are
         attributable). *)
      let jobs_ablation =
        List.sort_uniq compare
          [
            2;
            4;
            max 2 (Bbc_parallel.default_jobs ());
            max 2 (Domain.recommended_domain_count ());
          ]
      in
      let speedups =
        List.concat_map (fun par_jobs -> speedup_benchmarks ~par_jobs) jobs_ablation
      in
      print_speedups speedups;
      let kernels = kernel_benchmarks () in
      print_kernels kernels;
      let msbfs = msbfs_benchmarks () in
      print_msbfs msbfs;
      let overheads = overhead_benchmarks () in
      print_overheads overheads;
      let bigbench = (bigbench_equivalence (), bigbench_scale_rows ()) in
      (let equiv, scale = bigbench in
       print_bigbench equiv scale);
      let servers = server_benchmarks ~full in
      print_servers servers;
      let campaign = campaign_benchmarks ~full in
      print_campaign campaign;
      write_json ~path ~micro:!micro ~kernels ~msbfs ~speedups ~overheads
        ~bigbench ~servers ~campaign);
  Bbc_obs.drain ();
  Option.iter close_out trace_oc;
  if !metrics_arg then Bbc_obs.pp_summary fmt;
  Format.pp_print_flush fmt ()
