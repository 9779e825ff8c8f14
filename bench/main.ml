(* The CI-gate probe: writes the machine-readable report that
   `make check` and scripts/check_{obs_overhead,kernels,bigbench}.sh
   read.  The paper's experiments run through `bbc experiment`; the
   end-to-end benchmark is bench/e2e.

     bench/main.exe --json FILE

   Sections: Bechamel micro-benchmarks ([micro]), sequential vs
   parallel on the domain pool ([speedup]), bit-parallel multi-source
   BFS vs per-source sweeps ([msbfs]), disabled-mode observability
   overhead ([obs_overhead]) and the large-n engine ([bigbench]).
   BBC_JOBS sizes the Bbc_parallel domain pool (default: the machine's
   recommended domain count). *)

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
   uninstrumented copies; Bbc_obs is never enabled in this binary, so
   the library side runs in disabled mode.  Verifies the
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
  [
    { ov_name = "eval/all_costs (n=2000,k=3)"; base_s = eval_b; inst_s = eval_i };
    { ov_name = "graph/apsp (n=512,k=3)"; base_s = apsp_b; inst_s = apsp_i };
  ]

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
(* Machine-readable output (BENCH_*.json); format documented in
   DESIGN.md section 7.                                                *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

(* One section per call: a JSON array of one-line rows (the gate
   scripts scan line by line, without a JSON parser). *)
let write_rows oc ~indent rows row =
  List.iteri
    (fun i r ->
      Printf.fprintf oc "%s%s%s\n" indent (row r) (if i = List.length rows - 1 then "" else ","))
    rows

let write_json ~path ~micro ~msbfs ~speedups ~overheads ~equiv ~scale =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"version\": 5,\n";
  out "  \"jobs\": %d,\n" (Bbc_parallel.default_jobs ());
  out "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"git_rev\": %S,\n" (git_rev ());
  out "  \"micro\": [\n";
  write_rows oc ~indent:"    " micro (fun (name, ns, minor_w, major_w) ->
      Printf.sprintf
        "{\"name\": %S, \"ns_per_run\": %.1f, \"minor_words\": %.0f, \"major_words\": %.0f}"
        name ns minor_w major_w);
  out "  ],\n";
  out "  \"msbfs\": [\n";
  write_rows oc ~indent:"    " msbfs (fun m ->
      Printf.sprintf
        "{\"name\": %S, \"scalar_s\": %.6f, \"batched_s\": %.6f, \"speedup\": %.3f, \
         \"results_match\": %b}"
        m.mb_name m.mb_scalar_s m.mb_batched_s
        (m.mb_scalar_s /. m.mb_batched_s)
        m.mb_matches);
  out "  ],\n";
  out "  \"speedup\": [\n";
  write_rows oc ~indent:"    " speedups (fun s ->
      Printf.sprintf
        "{\"name\": %S, \"jobs\": %d, \"sequential_s\": %.6f, \"parallel_s\": %.6f, \
         \"speedup\": %.3f, \"results_match\": %b}"
        s.sp_name s.par_jobs s.seq_s s.par_s (s.seq_s /. s.par_s) s.matches);
  out "  ],\n";
  out "  \"obs_overhead\": [\n";
  write_rows oc ~indent:"    " overheads (fun o ->
      Printf.sprintf
        "{\"name\": %S, \"baseline_s\": %.6f, \"instrumented_s\": %.6f, \"overhead_pct\": %.2f}"
        o.ov_name o.base_s o.inst_s
        (100.0 *. ((o.inst_s /. o.base_s) -. 1.0)));
  out "  ],\n";
  out "  \"bigbench\": {\n";
  out "    \"equivalence\": [\n";
  write_rows oc ~indent:"      " equiv (fun e ->
      Printf.sprintf
        "{\"family\": %S, \"streaming_matches_digraph\": %b, \
         \"estimator_exact_at_full_sample\": %b}"
        e.be_family e.be_streaming_matches e.be_estimator_exact);
  out "    ],\n";
  out "    \"scale\": [\n";
  write_rows oc ~indent:"      " scale (fun r ->
      Printf.sprintf
        "{\"family\": %S, \"n\": %d, \"k\": %d, \"landmarks\": %d, \"build_s\": %.6f, \
         \"build_ns_per_node\": %.1f, \"words_per_node\": %.1f, \"sweep_s\": %.6f, \
         \"estimate\": %.1f, \"bound\": %.1f, \"exact\": %b, \"completed\": %b}"
        r.bb_family r.bb_n r.bb_k r.bb_landmarks r.bb_build_s r.bb_build_ns_per_node
        r.bb_words_per_node r.bb_sweep_s r.bb_value r.bb_bound r.bb_exact r.bb_completed);
  out "    ]\n";
  out "  }\n";
  out "}\n";
  close_out oc;
  Format.fprintf fmt "wrote %s@." path

(* ------------------------------------------------------------------ *)

let () =
  let path = ref None in
  let usage = "usage: bench/main.exe --json FILE" in
  Arg.parse
    [ ("--json", Arg.String (fun p -> path := Some p), "FILE  write the report to FILE") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let path =
    match !path with
    | Some p -> p
    | None ->
        prerr_endline usage;
        exit 2
  in
  let micro = run_benchmarks ~name:"Micro-benchmarks (Bechamel)" (core_benchmarks ()) in
  (* Per-jobs ablation: jobs in {2, 4} (the EXPERIMENTS.md rechunk
     table; seq rows carry jobs=1), plus the configured pool width and
     the runtime's recommended domain count when they differ (the JSON
     carries both figures, so regressions in either are attributable). *)
  let jobs_ablation =
    List.sort_uniq compare
      [ 2; 4; max 2 (Bbc_parallel.default_jobs ()); max 2 (Domain.recommended_domain_count ()) ]
  in
  let speedups = List.concat_map (fun par_jobs -> speedup_benchmarks ~par_jobs) jobs_ablation in
  print_speedups speedups;
  let msbfs = msbfs_benchmarks () in
  print_msbfs msbfs;
  let overheads = overhead_benchmarks () in
  print_overheads overheads;
  let equiv = bigbench_equivalence () and scale = bigbench_scale_rows () in
  print_bigbench equiv scale;
  write_json ~path ~micro ~msbfs ~speedups ~overheads ~equiv ~scale
