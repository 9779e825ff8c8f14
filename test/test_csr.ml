module D = Bbc_graph.Digraph
module R = Bbc_fuzz.Reference
module Csr = Bbc_graph.Csr
module W = Bbc_graph.Workspace
module G = Bbc_graph.Generators
module SM = Bbc_prng.Splitmix

(* Random digraph with arbitrary lengths (including 0) and isolated
   vertices — the shapes the kernels must agree with the list-graph
   reference on. *)
let random_weighted rng ~n ~max_len =
  let g = D.create n in
  for u = 0 to n - 1 do
    if SM.int rng 4 > 0 then begin
      let deg = 1 + SM.int rng 3 in
      for _ = 1 to deg do
        let v = SM.int rng n in
        if v <> u then D.add_edge g u v (SM.int rng (max_len + 1))
      done
    end
  done;
  g

let fresh_sweep csr src =
  let dist = Array.make (Csr.n csr) Csr.unreachable in
  Csr.sssp csr (Csr.create_scratch ()) ~src ~dist;
  dist

let test_bfs_matches_reference () =
  let rng = SM.create 2024 in
  for _ = 1 to 30 do
    let n = 5 + SM.int rng 40 in
    let g = G.random_k_out rng ~n ~k:(1 + SM.int rng 3) in
    let csr = Csr.of_digraph g in
    Alcotest.(check bool) "unit graph detected" true (Csr.unit_lengths csr);
    let src = SM.int rng n in
    Alcotest.(check (array int)) "bfs = oracle" (R.bfs g src) (fresh_sweep csr src)
  done

let test_dijkstra_matches_reference () =
  let rng = SM.create 7777 in
  for _ = 1 to 30 do
    let n = 2 + SM.int rng 40 in
    let g = random_weighted rng ~n ~max_len:4 in
    let csr = Csr.of_digraph g in
    let src = SM.int rng n in
    let dist = Array.make n Csr.unreachable in
    Csr.dijkstra csr (Csr.create_scratch ()) ~src ~dist;
    Alcotest.(check (array int)) "dijkstra = oracle" (R.dijkstra g src) dist
  done

let test_sssp_dispatch_zero_lengths () =
  (* Zero-length edges force the Dijkstra path even though BFS-shaped. *)
  let g = D.of_edges 4 [ (0, 1, 0); (1, 2, 0); (2, 3, 2) ] in
  let csr = Csr.of_digraph g in
  Alcotest.(check bool) "not unit" false (Csr.unit_lengths csr);
  Alcotest.(check (array int)) "sssp" [| 0; 0; 0; 2 |] (fresh_sweep csr 0)

let test_disconnected () =
  let g = D.create 5 in
  D.add_edge g 0 1 1;
  let csr = Csr.of_digraph g in
  let d = fresh_sweep csr 0 in
  Alcotest.(check int) "reached" 1 d.(1);
  Alcotest.(check int) "isolated" Csr.unreachable d.(3)

let test_ban_matches_removed () =
  let rng = SM.create 31 in
  for _ = 1 to 20 do
    let n = 3 + SM.int rng 20 in
    let g = random_weighted rng ~n ~max_len:3 in
    let u = SM.int rng n in
    let src = SM.int rng n in
    let pruned = D.of_edges n (List.filter (fun (a, _, _) -> a <> u) (D.edges g)) in
    let banned = Array.make n Csr.unreachable in
    Csr.sssp ~ban:u (Csr.of_digraph g) (Csr.create_scratch ()) ~src ~dist:banned;
    Alcotest.(check (array int)) "~ban sweep = oracle on pruned graph" (R.shortest pruned src) banned;
    Alcotest.(check (array int))
      "~ban sweep = sweep of pruned snapshot"
      (fresh_sweep (Csr.of_digraph pruned) src)
      banned
  done

let test_builder_matches_of_digraph () =
  let rng = SM.create 404 in
  for _ = 1 to 20 do
    let n = 2 + SM.int rng 25 in
    let g = random_weighted rng ~n ~max_len:3 in
    let m = List.length (D.edges g) in
    (* Overestimate capacity on purpose: [finish] must shrink. *)
    let b = Csr.builder ~n ~m:(m + 5) in
    for u = 0 to n - 1 do
      List.iter (fun (v, len) -> Csr.add b u v len) (D.out_edges g u)
    done;
    let built = Csr.finish b in
    Alcotest.(check int) "edge count" m (Csr.edge_count built);
    let src = SM.int rng n in
    Alcotest.(check (array int))
      "same distances" (fresh_sweep (Csr.of_digraph g) src) (fresh_sweep built src)
  done

(* Each move replaces one row of the walk's snapshot; the result must
   be the snapshot rebuilt from the updated profile, and the old
   snapshot must be left as it was.  Lengths: 0 -> 4 costs 3 and
   4 -> 0 costs 2, every other edge 1, so the moves flip
   [unit_lengths] both ways. *)
let test_with_row_matches_rebuild () =
  let n = 5 in
  let length = Array.init n (fun u -> Array.init n (fun v -> if u = v then 0 else 1)) in
  length.(0).(4) <- 3;
  length.(4).(0) <- 2;
  let inst =
    Bbc.Instance.general
      ~weight:(Array.init n (fun u -> Array.init n (fun v -> if u = v then 0 else 1)))
      ~cost:(Array.init n (fun u -> Array.init n (fun v -> if u = v then 0 else 1)))
      ~length ~budget:(Array.make n (n - 1)) ()
  in
  let cfg = Bbc.Config.of_lists n [| [ 1; 2 ]; [ 2 ]; []; [ 4 ]; [ 3 ] |] in
  let moves =
    [
      ("u = 0 grows", 0, [ 1; 2; 3 ], true);
      ("u = 0 shrinks to a non-unit edge", 0, [ 4 ], false);
      ("u = n-1 swaps to a non-unit edge", 4, [ 0 ], false);
      ("u = 0 empties, 4 -> 0 still weighted", 0, [], false);
      ("u = n-1 drops the last non-unit edge", 4, [ 1; 2 ], true);
      ("empty row grows", 2, [ 0; 1; 3; 4 ], true);
      ("u = n-1 empties", 4, [], true);
      ("middle row shrinks", 2, [ 3 ], true);
    ]
  in
  ignore
    (List.fold_left
       (fun (cfg, snap) (what, u, s, unit) ->
         let cfg' = Bbc.Config.with_strategy cfg u s in
         let targets = Array.of_list s in
         let lengths = Array.map (Bbc.Instance.length inst u) targets in
         let snap' = Csr.with_row snap u ~targets ~lengths in
         Alcotest.(check bool) what true (Csr.equal snap' (Bbc.Config.to_csr inst cfg'));
         Alcotest.(check bool) (what ^ ": unit_lengths") unit (Csr.unit_lengths snap');
         Alcotest.(check bool)
           (what ^ ": old snapshot untouched")
           true
           (Csr.equal snap (Bbc.Config.to_csr inst cfg));
         (cfg', snap'))
       (cfg, Bbc.Config.to_csr inst cfg)
       moves);
  let snap = Bbc.Config.to_csr inst cfg in
  Alcotest.check_raises "vertex out of range" (Invalid_argument "Csr.with_row: vertex out of range")
    (fun () -> ignore (Csr.with_row snap n ~targets:[||] ~lengths:[||]));
  Alcotest.check_raises "target out of range" (Invalid_argument "Csr.with_row: vertex out of range")
    (fun () -> ignore (Csr.with_row snap 0 ~targets:[| n |] ~lengths:[| 1 |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Csr.with_row: targets and lengths differ in length") (fun () ->
      ignore (Csr.with_row snap 0 ~targets:[| 1 |] ~lengths:[||]))

let test_builder_rejects_unsorted () =
  let b = Csr.builder ~n:3 ~m:2 in
  Csr.add b 1 0 1;
  Alcotest.check_raises "descending source" (Invalid_argument "Csr.add: sources must be non-decreasing")
    (fun () -> Csr.add b 0 1 1)

let test_buffer_reuse_with_reset () =
  (* One scratch + one buffer across every source of many graphs: after
     [reset] the buffer must behave exactly like a fresh allocation. *)
  let rng = SM.create 555 in
  let scratch = Csr.create_scratch () in
  let buf = ref [||] in
  for _ = 1 to 10 do
    let n = 2 + SM.int rng 30 in
    let g = random_weighted rng ~n ~max_len:4 in
    let csr = Csr.of_digraph g in
    if Array.length !buf < n then buf := Array.make n Csr.unreachable;
    for src = 0 to n - 1 do
      Csr.sssp csr scratch ~src ~dist:!buf;
      let expect = R.shortest g src in
      for v = 0 to n - 1 do
        if !buf.(v) <> expect.(v) then
          Alcotest.failf "reused buffer diverges at src=%d v=%d" src v
      done;
      Csr.reset scratch !buf
    done;
    Array.iteri
      (fun i d ->
        if d <> Csr.unreachable then Alcotest.failf "reset left entry %d dirty" i)
      !buf
  done

let test_apsp_matches_floyd_warshall () =
  let rng = SM.create 97 in
  for _ = 1 to 10 do
    let n = 2 + SM.int rng 25 in
    let g = random_weighted rng ~n ~max_len:3 in
    let sweep = Bbc_graph.Apsp.matrix (Bbc_graph.Apsp.compute g) in
    let oracle = R.floyd_warshall g in
    Array.iteri
      (fun i row -> Alcotest.(check (array int)) (Printf.sprintf "row %d" i) oracle.(i) row)
      sweep
  done

let test_workspace_rows_clean () =
  let ws = W.get () in
  let r1 = W.acquire ws 16 in
  Array.iteri
    (fun i d -> if d <> Csr.unreachable then Alcotest.failf "fresh row dirty at %d" i)
    r1;
  r1.(3) <- 42;
  W.release ws r1;
  let r2 = W.acquire ws 16 in
  Alcotest.(check int) "recycled row is clean" Csr.unreachable r2.(3);
  W.release ws r2;
  Alcotest.(check bool) "pool retains rows" true (W.pooled ws >= 1)

(* Random unit-length digraph with isolated vertices — the MS-BFS
   dispatch shape ([random_weighted] draws 0-length edges, which defeat
   [unit_lengths]). *)
let random_unit rng ~n =
  let g = D.create n in
  for u = 0 to n - 1 do
    if SM.int rng 4 > 0 then begin
      let deg = 1 + SM.int rng 3 in
      for _ = 1 to deg do
        let v = SM.int rng n in
        if v <> u then D.add_edge g u v 1
      done
    end
  done;
  g

let test_msbfs_matches_scalar () =
  let rng = SM.create 6262 in
  for iter = 1 to 25 do
    let n = 2 + SM.int rng 60 in
    (* Every fifth graph is dense, so its windows of at least 16
       sources can flip to bottom-up; narrower windows never do. *)
    let g =
      if iter mod 5 = 0 then G.random_k_out rng ~n ~k:(max 1 (n / 2))
      else random_unit rng ~n
    in
    let csr = Csr.of_digraph g in
    let k = 1 + SM.int rng (min n Csr.batch_width) in
    (* Sources drawn with replacement: duplicates must behave like
       independent sweeps. *)
    let srcs = Array.init k (fun _ -> SM.int rng n) in
    let rows = Array.init k (fun _ -> Array.make n Csr.unreachable) in
    Csr.sssp_batch csr (Csr.create_scratch ()) ~srcs ~rows;
    Array.iteri
      (fun i src ->
        Alcotest.(check (array int))
          (Printf.sprintf "msbfs row %d = oracle bfs" i)
          (R.bfs g src) rows.(i))
      srcs
  done

let test_msbfs_ban_matches_scalar () =
  let rng = SM.create 4242 in
  for _ = 1 to 20 do
    let n = 3 + SM.int rng 40 in
    let g = random_unit rng ~n in
    let csr = Csr.of_digraph g in
    let u = SM.int rng n in
    let k = min n Csr.batch_width in
    let srcs = Array.init k (fun i -> i mod n) in
    let rows = Array.init k (fun _ -> Array.make n Csr.unreachable) in
    Csr.sssp_batch ~ban:u csr (Csr.create_scratch ()) ~srcs ~rows;
    Array.iteri
      (fun i src ->
        let expect = Array.make n Csr.unreachable in
        Csr.bfs ~ban:u csr (Csr.create_scratch ()) ~src ~dist:expect;
        Alcotest.(check (array int))
          (Printf.sprintf "banned msbfs row %d" i)
          expect rows.(i))
      srcs
  done

let test_sssp_batch_windows () =
  (* n = 130 spans a full window, a second full window, and a ragged
     tail of 6 — plus an exactly-batch_width batch (the full-mask
     window, where the sign-bit guard matters). *)
  let rng = SM.create 130130 in
  let n = 130 in
  let g = random_unit rng ~n in
  let csr = Csr.of_digraph g in
  let scratch = Csr.create_scratch () in
  let check_all k =
    let srcs = Array.init k Fun.id in
    let rows = Array.init k (fun _ -> Array.make n Csr.unreachable) in
    Csr.sssp_batch csr scratch ~srcs ~rows;
    for i = 0 to k - 1 do
      Alcotest.(check (array int)) (Printf.sprintf "k=%d row %d" k i) (R.bfs g i) rows.(i)
    done;
    (* Multi-window batches fall back to full fills in reset_rows; both
       paths must leave every row clean. *)
    Csr.reset_rows scratch ~rows;
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun v d ->
            if d <> Csr.unreachable then
              Alcotest.failf "reset_rows left row %d entry %d dirty" i v)
          row)
      rows
  in
  check_all n;
  check_all Csr.batch_width;
  check_all 1

(* Every window width from 1 to [batch_width], on both sides of the
   narrowest width that may pull (16): a sparse k-out graph, where few
   levels are dense, and a dense one, where wide windows flip to
   bottom-up from the first level; and two weighted graphs with
   zero-length edges and isolated vertices, which take the bucketed
   windows.  Every row, with and without a ban, must equal its scalar
   [sssp]. *)
let test_msbfs_direction_widths () =
  let rng = SM.create 1616 in
  let graphs =
    [
      ("sparse", G.random_k_out rng ~n:150 ~k:2);
      ("dense", G.random_k_out rng ~n:90 ~k:45);
      ("weighted, lengths 0..3", random_weighted rng ~n:90 ~max_len:3);
      ("weighted, lengths to the ring bound", random_weighted rng ~n:90 ~max_len:Csr.ring_max_length);
    ]
  in
  List.iter
    (fun (shape, g) ->
      let csr = Csr.of_digraph g in
      let n = Csr.n csr in
      let scratch = Csr.create_scratch () in
      let dist = Array.make n Csr.unreachable in
      List.iter
        (fun ban ->
          for w = 1 to Csr.batch_width do
            let srcs = Array.init w (fun i -> ((i * 7) + 3) mod n) in
            let rows = Array.init w (fun _ -> Array.make n Csr.unreachable) in
            Csr.sssp_batch ?ban csr scratch ~srcs ~rows;
            Array.iteri
              (fun i src ->
                Csr.sssp ?ban csr (Csr.create_scratch ()) ~src ~dist;
                let what =
                  Printf.sprintf "%s ban=%d width %d row %d" shape
                    (Option.value ~default:(-1) ban) w i
                in
                Alcotest.(check (array int)) what dist rows.(i);
                Array.fill dist 0 n Csr.unreachable)
              srcs;
            Csr.reset_rows scratch ~rows
          done)
        [ None; Some 3 ])
    graphs

(* Every row of a batch against its own scalar sweep (and so against
   [dijkstra] or [bfs] with the same [ban]), then [reset_rows] must
   leave the whole batch clean. *)
let check_batch_vs_scalar ~what ?ban csr scratch srcs =
  let n = Csr.n csr in
  let rows = Array.map (fun _ -> Array.make n Csr.unreachable) srcs in
  Csr.sssp_batch ?ban csr scratch ~srcs ~rows;
  Array.iteri
    (fun i src ->
      let expect = Array.make n Csr.unreachable in
      Csr.sssp ?ban csr (Csr.create_scratch ()) ~src ~dist:expect;
      Alcotest.(check (array int)) (Printf.sprintf "%s row %d (src %d)" what i src) expect rows.(i))
    srcs;
  Csr.reset_rows scratch ~rows;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun v d ->
          if d <> Csr.unreachable then Alcotest.failf "%s: reset_rows left row %d entry %d dirty" what i v)
        row)
    rows

(* Weighted snapshots up to [Csr.ring_max_length] sweep bit-parallel
   windows; longer-edged ones fall back to per-source Dijkstra.  Both
   sides of that rule, zero-length edges and vertices no source reaches
   ([random_weighted] draws both), duplicate sources, one- and
   two-window batches, with and without a ban, on one scratch that
   unit-length snapshots share in between: every row must equal the
   list-graph reference, and its scalar sweep. *)
let test_sssp_batch_weighted_dispatch () =
  let rng = SM.create 909 in
  let scratch = Csr.create_scratch () in
  let bound = Csr.ring_max_length in
  (* A larger unit-length snapshot shares the scratch between weighted
     batches. *)
  let big_unit = Csr.of_digraph (random_unit rng ~n:120) in
  for iter = 1 to 24 do
    let n = 3 + SM.int rng 80 in
    let max_len = List.nth [ 0; 1; 4; bound; bound + 1; 3 * bound ] (iter mod 6) in
    let g = random_weighted rng ~n ~max_len in
    let csr = Csr.of_digraph g in
    let k = 1 + SM.int rng (min (2 * n) (2 * Csr.batch_width)) in
    let srcs = Array.init k (fun _ -> SM.int rng n) in
    let rows = Array.init k (fun _ -> Array.make n Csr.unreachable) in
    Csr.sssp_batch csr scratch ~srcs ~rows;
    Array.iteri
      (fun i src ->
        Alcotest.(check (array int))
          (Printf.sprintf "max_len %d, %d sources: row %d = dijkstra" max_len k i)
          (R.dijkstra g src) rows.(i))
      srcs;
    Csr.reset_rows scratch ~rows;
    let what = Printf.sprintf "max_len %d, %d sources" max_len k in
    check_batch_vs_scalar ~what:(what ^ " ban") ~ban:(SM.int rng n) csr scratch srcs;
    check_batch_vs_scalar ~what:(what ^ " then unit") big_unit scratch srcs
  done

let test_batch_reuse_and_clean_pool () =
  (* One scratch across many graphs and sizes (the self-cleaning bitmap
     invariant), pooled rows acquired in batches, restored through
     [reset_rows], and returned clean. *)
  let rng = SM.create 7171 in
  let scratch = Csr.create_scratch () in
  let ws = W.get () in
  for _ = 1 to 8 do
    let n = 4 + SM.int rng 60 in
    let g = random_unit rng ~n in
    let csr = Csr.of_digraph g in
    let k = min n Csr.batch_width in
    let srcs = Array.init k Fun.id in
    let rows = W.acquire_many ws n k in
    Array.iter
      (fun row ->
        Array.iteri
          (fun i d ->
            if d <> Csr.unreachable then Alcotest.failf "acquired row dirty at %d" i)
          row)
      rows;
    Csr.sssp_batch csr scratch ~srcs ~rows;
    Array.iteri
      (fun i src ->
        Alcotest.(check (array int))
          (Printf.sprintf "reused scratch row %d" i)
          (R.bfs g src) rows.(i))
      srcs;
    Csr.reset_rows scratch ~rows;
    Array.iter
      (fun row ->
        Array.iteri
          (fun i d ->
            if d <> Csr.unreachable then Alcotest.failf "reset_rows left entry %d dirty" i)
          row)
      rows;
    W.release_clean_many ws rows
  done;
  Alcotest.(check bool) "pool retains batch rows" true (W.pooled ws >= 1)

let test_pooled_best_response_jobs_invariant () =
  (* Pooled rows + per-domain workspaces: the parallel from-scratch
     stability scan (which runs pooled Best_response enumerations on
     every domain) must agree with the sequential one, and repeated
     Eval fan-outs must agree across job counts. *)
  let rng = SM.create 808 in
  for _ = 1 to 8 do
    let n = 12 in
    let inst = Bbc.Instance.uniform ~n ~k:2 in
    let c = Bbc.Config.of_graph (G.random_k_out rng ~n ~k:2) in
    let seq = Bbc.Stability.is_stable ~jobs:1 inst c in
    let par = Bbc.Stability.is_stable ~jobs:4 inst c in
    Alcotest.(check bool) "stability verdict jobs-invariant" seq par;
    Alcotest.(check (array int))
      "all_costs jobs-invariant"
      (Bbc.Eval.all_costs ~jobs:1 inst c)
      (Bbc.Eval.all_costs ~jobs:4 inst c)
  done

(* Fixed fixtures larger than the random cases above: BFS and Dijkstra
   on n = 2000, APSP on n = 256, and the pooled best response on an
   n = 40 game, each against its list-graph reference (the best
   response's is the cheapest subset of [Reference.enumerate]). *)
let test_fixed_fixtures () =
  let g = G.random_k_out (SM.create 2) ~n:2000 ~k:3 in
  Alcotest.(check (array int)) "bfs (n=2000,k=3)" (R.bfs g 0) (fresh_sweep (Csr.of_digraph g) 0);
  (* The same topology with lengths 1..4, so Dijkstra runs the heap
     kernel rather than BFS. *)
  let gw =
    let rng = SM.create 11 in
    let h = D.create (D.n g) in
    D.iter_edges g (fun u v _ -> D.add_edge h u v (1 + SM.int rng 4));
    h
  in
  Alcotest.(check (array int))
    "dijkstra (n=2000,k=3,weighted)" (R.dijkstra gw 0)
    (fresh_sweep (Csr.of_digraph gw) 0);
  let apsp_graph = G.random_k_out (SM.create 7) ~n:256 ~k:3 in
  Alcotest.(check (array (array int)))
    "apsp (n=256,k=3)" (R.floyd_warshall apsp_graph)
    (Bbc_graph.Apsp.matrix (Bbc_graph.Apsp.compute apsp_graph));
  let inst = Bbc.Instance.uniform ~n:40 ~k:2 in
  let config = Bbc.Config.of_graph (G.random_k_out (SM.create 1) ~n:40 ~k:2) in
  let best = ref max_int in
  R.enumerate inst config 0 ~on_subset:(fun _ c ->
      best := min !best c;
      false);
  Alcotest.(check int)
    "best_response/exact (n=40,k=2)" !best
    (Bbc.Best_response.exact inst config 0).cost

let suite =
  [
    Alcotest.test_case "bfs matches reference" `Quick test_bfs_matches_reference;
    Alcotest.test_case "dijkstra matches reference" `Quick test_dijkstra_matches_reference;
    Alcotest.test_case "zero lengths dispatch" `Quick test_sssp_dispatch_zero_lengths;
    Alcotest.test_case "disconnected graphs" `Quick test_disconnected;
    Alcotest.test_case "ban = removed out-edges" `Quick test_ban_matches_removed;
    Alcotest.test_case "builder matches of_digraph" `Quick test_builder_matches_of_digraph;
    Alcotest.test_case "builder rejects unsorted" `Quick test_builder_rejects_unsorted;
    Alcotest.test_case "with_row matches rebuild" `Quick test_with_row_matches_rebuild;
    Alcotest.test_case "buffer reuse with reset" `Quick test_buffer_reuse_with_reset;
    Alcotest.test_case "apsp matches floyd-warshall" `Quick test_apsp_matches_floyd_warshall;
    Alcotest.test_case "workspace rows stay clean" `Quick test_workspace_rows_clean;
    Alcotest.test_case "msbfs matches scalar bfs" `Quick test_msbfs_matches_scalar;
    Alcotest.test_case "msbfs with ban" `Quick test_msbfs_ban_matches_scalar;
    Alcotest.test_case "sssp_batch windows + ragged tail" `Quick test_sssp_batch_windows;
    Alcotest.test_case "msbfs window widths, both directions" `Quick test_msbfs_direction_widths;
    Alcotest.test_case "sssp_batch weighted dispatch" `Quick
      test_sssp_batch_weighted_dispatch;
    Alcotest.test_case "batch reuse + clean pool" `Quick test_batch_reuse_and_clean_pool;
    Alcotest.test_case "pooled best response jobs-invariant" `Quick
      test_pooled_best_response_jobs_invariant;
    Alcotest.test_case "fixed fixtures match references" `Quick test_fixed_fixtures;
  ]
