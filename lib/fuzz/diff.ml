(* Differential suites; see diff.mli for the engine-pair matrix. *)

module I = Bbc.Instance
module C = Bbc.Config
module E = Bbc.Eval
module BR = Bbc.Best_response
module Json = Bbc.Json
module Csr = Bbc_graph.Csr
module Apsp = Bbc_graph.Apsp

type options = { seed : int; count : int; max_shrink_steps : int }

type failure_report = {
  prop : string;
  case : int;
  steps_used : int;
  message : string;
  instance : I.t;
  config : C.t option;
  detail : string;
}

type prop_report = {
  suite : string;
  name : string;
  prop_seed : int;
  stats : Runner.stats;
  failure : failure_report option;
}

(* A property packed with its generator and a renderer that extracts
   the (instance, config, extra-detail) view of a counterexample. *)
type packed =
  | Packed : {
      name : string;
      gen : 'a Gen.t;
      prop : 'a -> (unit, string) result;
      render : 'a -> I.t * C.t option * string;
    }
      -> packed

let ok = Ok ()
let failf fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec check_all f = function
  | [] -> ok
  | x :: rest -> ( match f x with Ok () -> check_all f rest | e -> e)

let nodes inst = List.init (I.n inst) Fun.id

let array_mismatch a b =
  if Array.length a <> Array.length b then Some (-1)
  else
    let rec go i =
      if i >= Array.length a then None
      else if a.(i) <> b.(i) then Some i
      else go (i + 1)
    in
    go 0

let moves_to_string ms =
  String.concat " "
    (List.map
       (fun (u, s) ->
         Printf.sprintf "%d<-[%s]" u (String.concat ";" (List.map string_of_int s)))
       ms)

(* ---------------------------------------------------------------- *)
(* Suite csr: list-graph reference vs flat CSR kernels.              *)

let ic_csr = Domain_gen.instance_config ~max_n:10 ()

(* A fresh distance row from one CSR kernel sweep. *)
let sweep ?ban csr src =
  let dist = Array.make (Csr.n csr) Csr.unreachable in
  Csr.sssp ?ban csr (Csr.create_scratch ()) ~src ~dist;
  dist

let prop_paths_vs_csr (inst, cfg) =
  let g = C.to_graph inst cfg in
  let csr = C.to_csr inst cfg in
  check_all
    (fun src ->
      match array_mismatch (Reference.shortest g src) (sweep csr src) with
      | None -> ok
      | Some v -> failf "src %d: list-graph oracle and CSR sweep disagree at node %d" src v)
    (nodes inst)

let prop_apsp_vs_floyd (inst, cfg) =
  let g = C.to_graph inst cfg in
  let fast = Apsp.compute g in
  let oracle = Reference.floyd_warshall g in
  check_all
    (fun u ->
      check_all
        (fun v ->
          if Apsp.distance fast u v = oracle.(u).(v) then ok
          else failf "apsp (%d, %d): compute <> floyd_warshall" u v)
        (nodes inst))
    (nodes inst)

(* [~ban:u] sweeps of the full snapshot against the list-graph oracle on
   the profile with [u]'s links dropped: the G_{-u} rows every best
   response reads, from two independent constructions. *)
let prop_ban_vs_skip (inst, cfg) =
  let full = C.to_csr inst cfg in
  check_all
    (fun u ->
      let g_u = C.to_graph inst (C.with_strategy cfg u []) in
      check_all
        (fun src ->
          match array_mismatch (sweep ~ban:u full src) (Reference.shortest g_u src) with
          | None -> ok
          | Some v ->
              failf "ban:%d src %d: ~ban sweep and G_{-u} oracle disagree at %d" u src v)
        (nodes inst))
    (nodes inst)

(* A walk of rewires, one snapshot carried along by
   [Config.csr_with_row]: after every move it must equal the snapshot
   rebuilt from the new profile, and the one it replaced must be
   unchanged.  General games' lengths 1..3 flip [unit_lengths] both
   ways along a walk. *)
let ic_rewires =
  let open Gen in
  let* inst, cfg = ic_csr in
  let+ ms = Domain_gen.moves inst in
  (inst, cfg, ms)

let prop_with_row_vs_rebuild (inst, cfg, ms) =
  let rec go cfg snap = function
    | [] -> ok
    | (u, s) :: rest ->
        let cfg' = C.with_strategy cfg u s in
        let snap' = C.csr_with_row inst cfg' snap u in
        if not (Csr.equal snap' (C.to_csr inst cfg')) then
          failf "node %d <- [%s]: with_row <> to_csr of the new profile" u
            (String.concat ";" (List.map string_of_int s))
        else if not (Csr.equal snap (C.to_csr inst cfg)) then
          failf "node %d: with_row changed the snapshot it replaced" u
        else go cfg' snap' rest
  in
  go cfg (C.to_csr inst cfg) ms

let csr_suite =
  let render (inst, cfg) = (inst, Some cfg, "") in
  [
    Packed { name = "paths_vs_csr"; gen = ic_csr; prop = prop_paths_vs_csr; render };
    Packed { name = "apsp_vs_floyd"; gen = ic_csr; prop = prop_apsp_vs_floyd; render };
    Packed { name = "ban_vs_skip"; gen = ic_csr; prop = prop_ban_vs_skip; render };
    Packed
      {
        name = "with_row_vs_rebuild";
        gen = ic_rewires;
        prop = prop_with_row_vs_rebuild;
        render = (fun (inst, cfg, ms) -> (inst, Some cfg, moves_to_string ms));
      };
  ]

(* ---------------------------------------------------------------- *)
(* Suite msbfs: bit-parallel multi-source sweeps vs per-source sweeps.
   Instances up to n = 70 cross the batch_width = 62 window boundary,
   so ragged tails and multi-window batches are generated, not just
   hand-picked; general instances (lengths 1..3) run the bucketed
   weighted windows through the same properties, and
   [weighted_batch_vs_scalar] adds zero-length edges and lengths past
   [Csr.ring_max_length], where [sssp_batch] falls back to Dijkstra. *)

let ic_msbfs = Domain_gen.instance_config ~max_n:70 ()

let scalar_reference csr srcs =
  Array.map (sweep csr) srcs

let check_rows ~what srcs reference rows =
  let r = ref ok in
  Array.iteri
    (fun i src ->
      if !r = ok then
        match array_mismatch reference.(i) rows.(i) with
        | None -> ()
        | Some v -> r := failf "%s: src %d (row %d) disagrees at node %d" what src i v)
    srcs;
  !r

let prop_batch_vs_scalar (inst, cfg) =
  let n = I.n inst in
  let csr = C.to_csr inst cfg in
  let srcs = Array.init n Fun.id in
  let rows = Array.init n (fun _ -> Array.make n Csr.unreachable) in
  Csr.sssp_batch csr (Csr.create_scratch ()) ~srcs ~rows;
  check_rows ~what:"sssp_batch" srcs (scalar_reference csr srcs) rows

let prop_batch_ban_vs_scalar (inst, cfg) =
  let n = I.n inst in
  let csr = C.to_csr inst cfg in
  let srcs = Array.init n Fun.id in
  let scratch = Csr.create_scratch () in
  let dist = Array.make n Csr.unreachable in
  check_all
    (fun ban ->
      let rows = Array.init n (fun _ -> Array.make n Csr.unreachable) in
      Csr.sssp_batch ~ban csr (Csr.create_scratch ()) ~srcs ~rows;
      let reference =
        Array.map
          (fun src ->
            Csr.sssp ~ban csr scratch ~src ~dist;
            let r = Array.copy dist in
            Csr.reset scratch dist;
            r)
          srcs
      in
      check_rows ~what:(Printf.sprintf "sssp_batch ~ban:%d" ban) srcs reference rows)
    (List.sort_uniq compare [ 0; n / 2; n - 1 ])

let prop_batch_source_subset (inst, cfg) =
  (* Non-contiguous, shuffled, duplicated sources: every row must still
     equal its own independent sweep. *)
  let n = I.n inst in
  let csr = C.to_csr inst cfg in
  let k = n + (n / 2) in
  let srcs = Array.init k (fun i -> ((i * 13) + 5) mod n) in
  let rows = Array.init k (fun _ -> Array.make n Csr.unreachable) in
  Csr.sssp_batch csr (Csr.create_scratch ()) ~srcs ~rows;
  check_rows ~what:"sssp_batch subset" srcs (scalar_reference csr srcs) rows

let prop_batch_reuse_reset (inst, cfg) =
  (* One scratch across a plain batch and a banned batch, rows restored
     with [reset_rows] in between: the second batch must be exact and
     the restore must leave every entry clean (the self-cleaning bitmap
     and dirty-list-handoff invariants). *)
  let n = I.n inst in
  let csr = C.to_csr inst cfg in
  let scratch = Csr.create_scratch () in
  let srcs = Array.init n Fun.id in
  let rows = Array.init n (fun _ -> Array.make n Csr.unreachable) in
  Csr.sssp_batch csr scratch ~srcs ~rows;
  Csr.reset_rows scratch ~rows;
  let dirty = ref ok in
  Array.iteri
    (fun i row ->
      if !dirty = ok then
        Array.iteri
          (fun v d ->
            if !dirty = ok && d <> Csr.unreachable then
              dirty := failf "reset_rows left row %d entry %d dirty" i v)
          row)
    rows;
  match !dirty with
  | Error _ as e -> e
  | Ok () ->
      let ban = n / 2 in
      Csr.sssp_batch ~ban csr scratch ~srcs ~rows;
      let scratch2 = Csr.create_scratch () in
      let dist = Array.make n Csr.unreachable in
      let reference =
        Array.map
          (fun src ->
            Csr.sssp ~ban csr scratch2 ~src ~dist;
            let r = Array.copy dist in
            Csr.reset scratch2 dist;
            r)
          srcs
      in
      check_rows ~what:"reused-scratch banned batch" srcs reference rows

(* A digraph of up to 70 vertices whose edges get lengths drawn from
   [0, max_len]: mostly short (the ring fits), sometimes past
   the ring bound.  Zero lengths are legal in a digraph, never in an
   instance. *)
let weighted_graph =
  let open Gen in
  let* g = Domain_gen.graph ~max_n:70 ~max_k:4 () in
  let* max_len = frequency [ (2, int_bound 6); (1, int_bound (Csr.ring_max_length + 8)) ] in
  let+ seed = int_bound 0xFFFF in
  let rng = Bbc_prng.Splitmix.create seed in
  let h = Bbc_graph.Digraph.create (Bbc_graph.Digraph.n g) in
  Bbc_graph.Digraph.iter_edges g (fun u v _ ->
      Bbc_graph.Digraph.add_edge h u v (Bbc_prng.Splitmix.int rng (max_len + 1)));
  h

(* Shuffled, duplicated sources over two windows: rows against the
   list-graph oracle, banned rows against their scalar sweeps, and every
   row clean after [reset_rows]. *)
let prop_weighted_batch_vs_scalar g =
  let n = Bbc_graph.Digraph.n g in
  let csr = Csr.of_digraph g in
  let k = n + (n / 2) in
  let srcs = Array.init k (fun i -> ((i * 13) + 5) mod n) in
  let scratch = Csr.create_scratch () in
  let rows = Array.init k (fun _ -> Array.make n Csr.unreachable) in
  Csr.sssp_batch csr scratch ~srcs ~rows;
  let plain = check_rows ~what:"weighted sssp_batch" srcs (Array.map (Reference.shortest g) srcs) rows in
  Result.bind plain @@ fun () ->
  Csr.reset_rows scratch ~rows;
  match Array.find_index (Array.exists (( <> ) Csr.unreachable)) rows with
  | Some i -> failf "reset_rows left row %d dirty" i
  | None ->
      let ban = n / 2 in
      Csr.sssp_batch ~ban csr scratch ~srcs ~rows;
      check_rows
        ~what:(Printf.sprintf "weighted sssp_batch ~ban:%d" ban)
        srcs
        (Array.map (sweep ~ban csr) srcs)
        rows

let show_edges g =
  String.concat " "
    (List.map (fun (u, v, l) -> Printf.sprintf "%d->%d:%d" u v l) (Bbc_graph.Digraph.edges g))

let msbfs_suite =
  let render (inst, cfg) = (inst, Some cfg, "") in
  [
    Packed
      { name = "batch_vs_scalar"; gen = ic_msbfs; prop = prop_batch_vs_scalar; render };
    Packed
      {
        name = "batch_ban_vs_scalar";
        gen = ic_msbfs;
        prop = prop_batch_ban_vs_scalar;
        render;
      };
    Packed
      {
        name = "batch_source_subset";
        gen = ic_msbfs;
        prop = prop_batch_source_subset;
        render;
      };
    Packed
      {
        name = "batch_reuse_reset";
        gen = ic_msbfs;
        prop = prop_batch_reuse_reset;
        render;
      };
    Packed
      {
        name = "weighted_batch_vs_scalar";
        gen = weighted_graph;
        prop = prop_weighted_batch_vs_scalar;
        (* The edges carry the counterexample; the instance only names n. *)
        render =
          (fun g ->
            let n = Int.max 2 (Bbc_graph.Digraph.n g) in
            (I.uniform ~n ~k:1, None, show_edges g));
      };
  ]

(* ---------------------------------------------------------------- *)
(* Suite br: exact best response vs exhaustive enumeration.          *)

let ic_tiny = Domain_gen.instance_config ~max_n:6 ()

let prop_br_vs_exhaustive (inst, cfg) =
  check_all
    (fun u ->
      let r = BR.exact inst cfg u in
      let brute =
        List.fold_left
          (fun acc s ->
            min acc (E.node_cost inst (C.with_strategy cfg u s) u))
          max_int
          (Bbc.Exhaustive.all_strategies inst u)
      in
      if r.BR.cost <> brute then
        failf "node %d: exact says %d, exhaustive says %d" u r.BR.cost brute
      else
        let realized = E.node_cost inst (C.with_strategy cfg u r.BR.strategy) u in
        if realized <> r.BR.cost then
          failf "node %d: reported strategy realizes %d, not %d" u realized
            r.BR.cost
        else ok)
    (nodes inst)

(* The full on_subset (strategy, cost) sequence and [improving]'s
   verdict, with and without a shared [?csr] snapshot, and (on uniform
   k = 1 functional inputs) on the closed form, against the reference
   DFS. *)
let sequence enumerate =
  let acc = ref [] in
  enumerate ~on_subset:(fun s c ->
      acc := (s, c) :: !acc;
      false);
  List.rev !acc

let show_sequence l =
  String.concat " "
    (List.map
       (fun (s, c) -> Printf.sprintf "[%s]=%d" (String.concat ";" (List.map string_of_int s)) c)
       l)

let show_verdict = function
  | None -> "none"
  | Some (s, c) -> show_sequence [ (s, c) ]

let prop_enumerate_vs_reference (inst, cfg) =
  let csr = C.to_csr inst cfg in
  let path =
    if I.uniform_k inst = Some 1 && Option.is_some (C.successors cfg) then " (closed form)" else ""
  in
  check_all
    (fun objective ->
      let obj = Bbc.Objective.to_string objective in
      check_all
        (fun u ->
          let expected = sequence (Reference.enumerate ~objective inst cfg u) in
          let current = E.node_cost ~objective inst cfg u in
          let verdict =
            List.find_opt (fun (_, c) -> c < current) expected
            |> Option.map (fun (s, c) -> (List.sort compare s, c))
          in
          check_all
            (fun (provider, csr) ->
              let got = sequence (BR.enumerate ~objective ?csr inst cfg u) in
              let improving =
                BR.improving ~objective ?csr inst cfg u
                |> Option.map (fun (r : BR.result) -> (r.strategy, r.cost))
              in
              if got <> expected then
                failf "%s node %d, %s%s: enumerate gives %s, reference %s" obj u provider path
                  (show_sequence got) (show_sequence expected)
              else if improving <> verdict then
                failf "%s node %d, %s%s: improving gives %s, reference %s" obj u provider path
                  (show_verdict improving) (show_verdict verdict)
              else ok)
            [ ("scratch", None); ("csr", Some csr) ])
        (nodes inst))
    [ Bbc.Objective.Sum; Bbc.Objective.Max ]

(* The closed form on every profile of a rewiring walk from a uniform
   k = 1 start: each move buys at most one link, so every profile on
   the walk stays functional. *)
let k1_walk =
  let open Gen in
  let* inst, cfg = Domain_gen.uniform_k1_config ~max_n:8 () in
  let+ ms = Domain_gen.moves inst in
  (inst, cfg, ms)

let prop_k1_walk_vs_reference (inst, cfg, ms) =
  let rec go cfg ms =
    match (prop_enumerate_vs_reference (inst, cfg), ms) with
    | Ok (), (u, s) :: rest -> go (C.with_strategy cfg u s) rest
    | result, _ -> result
  in
  go cfg ms

(* The whole-profile closed form on every profile of the same walks:
   [Functional.scan]'s B and C against the per-node walk counts, the
   scans built on it ([Stability]'s verdicts and reported deviation,
   [Eval.all_costs]) against one decision per node and
   [Eval.node_cost]'s sweeps, for Sum and Max. *)
let scan_vs_walk_counts inst cfg =
  let succ = Option.get (C.successors cfg) in
  let s = Bbc.Functional.scan succ in
  check_all
    (fun u ->
      let t = Bbc.Functional.walk_counts succ u in
      let best = Array.fold_left max 0 t and current = if succ.(u) < 0 then 0 else t.(succ.(u)) in
      if s.best.(u) <> best || s.current.(u) <> current then
        failf "node %d: scan gives B %d C %d, walk counts B %d C %d" u s.best.(u) s.current.(u) best
          current
      else ok)
    (nodes inst)

let scans_vs_per_node inst cfg objective =
  let module S = Bbc.Stability in
  let obj = Bbc.Objective.to_string objective in
  let decisions = Array.init (I.n inst) (BR.decide ~objective ~search:First_improving inst cfg) in
  let unstable = List.filter (fun u -> decisions.(u).best.cost < decisions.(u).current) (nodes inst) in
  let deviation =
    List.nth_opt unstable 0 |> Option.map (fun u -> (u, decisions.(u).current, decisions.(u).best))
  in
  let got_deviation =
    S.find_deviation ~objective ~jobs:1 inst cfg
    |> Option.map (fun (d : S.deviation) -> (d.node, d.current_cost, d.better))
  in
  if S.is_stable ~objective ~jobs:1 inst cfg <> (unstable = []) then
    failf "%s: is_stable differs from per-node decisions" obj
  else if got_deviation <> deviation then failf "%s: find_deviation differs from per-node decisions" obj
  else
    match
      array_mismatch
        (E.all_costs ~objective ~jobs:1 inst cfg)
        (Array.init (I.n inst) (E.node_cost ~objective inst cfg))
    with
    | Some u -> failf "%s: all_costs differs from node_cost at node %d" obj u
    | None -> ok

let prop_k1_scan_vs_per_node (inst, cfg, ms) =
  let check cfg =
    Result.bind (scan_vs_walk_counts inst cfg) (fun () ->
        check_all (scans_vs_per_node inst cfg) [ Bbc.Objective.Sum; Bbc.Objective.Max ])
  in
  let rec go cfg ms =
    match (check cfg, ms) with
    | Ok (), (u, s) :: rest -> go (C.with_strategy cfg u s) rest
    | result, _ -> result
  in
  go cfg ms

let prop_improving_iff (inst, cfg) =
  check_all
    (fun u ->
      let current = E.node_cost inst cfg u in
      let brute_best =
        List.fold_left
          (fun acc s ->
            min acc (E.node_cost inst (C.with_strategy cfg u s) u))
          max_int
          (Bbc.Exhaustive.all_strategies inst u)
      in
      match BR.improving inst cfg u with
      | Some r ->
          if r.BR.cost >= current then
            failf "node %d: 'improving' result %d not below current %d" u
              r.BR.cost current
          else if brute_best >= current then
            failf "node %d: improving found but exhaustive optimum %d >= %d" u
              brute_best current
          else ok
      | None ->
          if brute_best < current then
            failf "node %d: improvement %d < %d exists but improving = None" u
              brute_best current
          else ok)
    (nodes inst)

(* Every activation's costs come from one [Best_response.decide]; the
   oracle is [Eval.node_cost] on the profiles before and after.  The
   start may overspend: up to three nodes are rewired to arbitrary
   target sets, budgets ignored, so some current targets are not DFS
   candidates.  [sample] (1..3) is usually below the candidate count,
   so the sampled search also prices targets outside its sample. *)
let ic_activation =
  let open Gen in
  let* inst, cfg = Domain_gen.instance_config ~max_n:6 () in
  let n = I.n inst in
  let overspend =
    let* u = Domain_gen.node_of inst in
    let+ picks = list ~max_len:(n - 1) (int_bound (n - 2)) in
    (u, List.sort_uniq compare (List.map (fun p -> if p >= u then p + 1 else p) picks))
  in
  let* extra = list ~max_len:3 overspend in
  let+ sample, seed = pair (int_range 1 3) (int_bound 0xFFFF) in
  (inst, List.fold_left (fun c (u, s) -> C.with_strategy c u s) cfg extra, sample, seed)

let prop_activation_cost_vs_eval (inst, cfg, sample, seed) =
  let n = I.n inst in
  let csr = C.to_csr inst cfg in
  let searches () =
    [
      ("exact", BR.Exact);
      ("first-improving", BR.First_improving);
      ("sampled", BR.Sampled { rng = Bbc_prng.Splitmix.create seed; sample });
    ]
  in
  let decisions objective =
    let obj = Bbc.Objective.to_string objective in
    check_all
      (fun u ->
        let current = E.node_cost ~objective inst cfg u in
        check_all
          (fun (provider, csr) ->
            check_all
              (fun (name, search) ->
                let d = BR.decide ~objective ?csr ~search inst cfg u in
                let realized = E.node_cost ~objective inst (C.with_strategy cfg u d.best.strategy) u in
                if d.current <> current then
                  failf "%s node %d, %s %s: decision current %d, Eval %d" obj u name provider
                    d.current current
                else if d.best.cost <> realized then
                  failf "%s node %d, %s %s: decision best %d, realized %d" obj u name provider
                    d.best.cost realized
                else ok)
              (searches ()))
          [ ("scratch", None); ("csr", Some csr) ])
      (nodes inst)
  in
  let walk objective (pname, policy) (sname, scheduler) =
    let config = ref cfg and error = ref None in
    let on_step (s : Bbc.Dynamics.step) =
      let before = !config in
      config := C.with_strategy before s.node s.strategy;
      let after = E.node_cost ~objective inst !config s.node in
      if !error = None && s.cost_after <> after then
        error :=
          Some
            (failf "%s %s %s step %d node %d: cost_after %d, Eval %d"
               (Bbc.Objective.to_string objective) pname sname s.index s.node s.cost_after after)
    in
    let max_rounds = match scheduler with Bbc.Dynamics.Max_cost_first -> 3 * n | _ -> 3 in
    ignore (Bbc.Dynamics.run ~objective ~policy ~on_step ~scheduler ~max_rounds inst cfg);
    Option.value ~default:ok !error
  in
  let walks objective =
    check_all
      (fun policy ->
        check_all (walk objective policy)
          [ ("round-robin", Bbc.Dynamics.Round_robin); ("max-cost", Bbc.Dynamics.Max_cost_first) ])
      [
        ("exact", Bbc.Dynamics.Exact_best_response);
        ("first", Bbc.Dynamics.First_improvement);
        ("sampled", Bbc.Dynamics.Sampled_best_response { sample; seed });
      ]
  in
  check_all
    (fun objective ->
      match decisions objective with Ok () -> walks objective | e -> e)
    [ Bbc.Objective.Sum; Bbc.Objective.Max ]

(* [Dynamics.run] keeps one snapshot per walk and replaces the mover's
   row after each move; [Reference.walk] hands every decision a
   snapshot built afresh.  Both must report the same steps and outcome
   under every policy, scheduler and objective.  The mix covers
   weighted general games and uniform k = 1 starts (the closed form,
   where the walk holds no snapshot). *)
let ic_walk =
  let open Gen in
  let* inst, cfg =
    oneof [ Domain_gen.instance_config ~max_n:7 (); Domain_gen.uniform_k1_config ~max_n:7 () ]
  in
  let+ sample, seed = pair (int_range 1 3) (int_bound 0xFFFF) in
  (inst, cfg, sample, seed)

let prop_walk_snapshot_vs_fresh (inst, cfg, sample, seed) =
  let n = I.n inst in
  let walk objective (pname, policy) (sname, scheduler) =
    let record run =
      let acc = ref [] in
      let outcome = run ~on_step:(fun s -> acc := s :: !acc) in
      (List.rev !acc, outcome)
    in
    let max_rounds = match scheduler with Bbc.Dynamics.Max_cost_first -> 3 * n | _ -> 3 in
    let got, got_outcome =
      record (fun ~on_step ->
          Bbc.Dynamics.run ~objective ~policy ~on_step ~scheduler ~max_rounds inst cfg)
    in
    let expected, expected_outcome =
      record (fun ~on_step ->
          Reference.walk ~objective ~policy ~on_step ~scheduler ~max_rounds inst cfg)
    in
    let label = Printf.sprintf "%s %s %s" (Bbc.Objective.to_string objective) pname sname in
    let rec first_diff i = function
      | s :: rest, r :: rest' -> if s = r then first_diff (i + 1) (rest, rest') else Some i
      | [], [] -> None
      | _ -> Some i
    in
    match first_diff 0 (got, expected) with
    | Some i ->
        failf "%s: step %d differs from the fresh-snapshot walk (%d vs %d steps)" label i
          (List.length got) (List.length expected)
    | None ->
        if got_outcome = expected_outcome then ok
        else
          failf "%s: outcome %s, fresh-snapshot walk %s" label
            (Format.asprintf "%a" Bbc.Dynamics.pp_outcome got_outcome)
            (Format.asprintf "%a" Bbc.Dynamics.pp_outcome expected_outcome)
  in
  check_all
    (fun objective ->
      check_all
        (fun policy ->
          check_all (walk objective policy)
            [
              ("round-robin", Bbc.Dynamics.Round_robin);
              ("random-order", Bbc.Dynamics.Random_order seed);
              ("max-cost", Bbc.Dynamics.Max_cost_first);
            ])
        [
          ("exact", Bbc.Dynamics.Exact_best_response);
          ("first", Bbc.Dynamics.First_improvement);
          ("sampled", Bbc.Dynamics.Sampled_best_response { sample; seed });
        ])
    [ Bbc.Objective.Sum; Bbc.Objective.Max ]

(* Local search scores moves from one G_{-u} matrix per node; the
   reference realizes and re-evaluates every candidate.  Same seed, same
   RNG consumption, so both must end on the same (cost, profile). *)
let instance_seed = Gen.pair (Domain_gen.instance ~max_n:6 ()) (Gen.int_bound 0xFFFF)

let prop_local_search_vs_reference (inst, seed) =
  check_all
    (fun objective ->
      let rng () = Bbc_prng.Splitmix.create seed in
      let cost, cfg = Bbc.Social_optimum.local_search ~objective ~restarts:2 (rng ()) inst in
      let ref_cost, ref_cfg = Reference.local_search ~objective ~restarts:2 (rng ()) inst in
      if cost = ref_cost && C.equal cfg ref_cfg then ok
      else
        failf "%s: local_search ends at cost %d, reference at %d%s"
          (Bbc.Objective.to_string objective) cost ref_cost
          (if cost = ref_cost then " (different profiles)" else ""))
    [ Bbc.Objective.Sum; Bbc.Objective.Max ]

(* The profile-space engine — [Exhaustive.search], [Social_optimum.analyze]
   and [Potential]'s improvement graph, all on the pruned block
   enumeration — against the reference that checks every profile from
   scratch, on tiny games: full and maximal candidate lists, Sum and
   Max, one and two jobs.  Spaces above [space_cap] profiles are left
   out to keep the reference fast. *)
let space_cap = 400
let tiny_instance = Domain_gen.instance ~max_n:5 ~max_k:2 ()
let same_profiles a b = List.length a = List.length b && List.for_all2 C.equal a b
let show_profiles l = "[" ^ String.concat "; " (List.map Bbc.Codec.config_to_string l) ^ "]"

let same_summary (a : Bbc.Social_optimum.summary) (b : Bbc.Social_optimum.summary) =
  let same_ne x y =
    match (x, y) with
    | Some (c, p), Some (c', p') -> c = c' && C.equal p p'
    | None, None -> true
    | _ -> false
  in
  a.optimum = b.optimum
  && C.equal a.optimal_profile b.optimal_profile
  && same_ne a.best_equilibrium b.best_equilibrium
  && same_ne a.worst_equilibrium b.worst_equilibrium
  && a.equilibria = b.equilibria && a.profiles = b.profiles

(* Kahn's algorithm: every vertex leaves the queue iff no cycle. *)
let acyclic size arcs =
  let indeg = Array.make size 0 and out = Array.make size [] in
  List.iter
    (fun (i, j) ->
      indeg.(j) <- indeg.(j) + 1;
      out.(i) <- j :: out.(i))
    arcs;
  let rec drain seen = function
    | [] -> seen = size
    | v :: queue ->
        drain (seen + 1)
          (List.fold_left
             (fun q w ->
               indeg.(w) <- indeg.(w) - 1;
               if indeg.(w) = 0 then w :: q else q)
             queue out.(v))
  in
  drain 0 (List.filter (fun v -> indeg.(v) = 0) (List.init size Fun.id))

let prop_engine_vs_reference inst =
  let module X = Bbc.Exhaustive in
  let edges g = List.rev (Bbc_graph.Digraph.fold_edges g (fun acc i j _ -> (i, j) :: acc) []) in
  let space (label, candidates) objective =
    let label = Printf.sprintf "%s/%s" label (Bbc.Objective.to_string objective) in
    let size = int_of_float (X.space_size candidates) in
    let search (limit, max_profiles) =
      let expected = Reference.search ~objective ~candidates ~limit ~max_profiles inst in
      check_all
        (fun jobs ->
          let r = X.search ~objective ~candidates ~limit ~max_profiles ~jobs inst in
          if not (same_profiles r.equilibria expected.equilibria) then
            failf "%s: search limit %d budget %d jobs %d: equilibria %s, reference %s" label limit
              max_profiles jobs (show_profiles r.equilibria) (show_profiles expected.equilibria)
          else if r.complete <> expected.complete then
            failf "%s: search limit %d jobs %d: complete %b, reference %b" label limit jobs
              r.complete expected.complete
          else if (jobs = 1 || r.complete) && r.examined <> expected.examined then
            failf "%s: search limit %d budget %d jobs %d: examined %d, reference %d" label limit
              max_profiles jobs r.examined expected.examined
          else ok)
        (if max_profiles = max_int then [ 1; 2 ] else [ 1 ])
    in
    let analyze jobs =
      match
        ( Bbc.Social_optimum.analyze ~objective ~candidates ~max_profiles:max_int ~jobs inst,
          Reference.analyze ~objective ~candidates inst )
      with
      | Some s, Some e when same_summary s e -> ok
      | None, None -> ok
      | _ -> failf "%s: analyze at %d jobs differs from the reference" label jobs
    in
    let graph (best_only, jobs) =
      let expected = Reference.improvement_arcs ~objective ~best_only ~candidates inst in
      let reference = Bbc_graph.Digraph.create size in
      List.iter (fun (i, j) -> Bbc_graph.Digraph.add_edge reference i j 1) expected;
      (* The graph runs at the pool's default job count. *)
      let prev = Bbc_parallel.default_jobs () in
      Bbc_parallel.set_default_jobs jobs;
      Fun.protect ~finally:(fun () -> Bbc_parallel.set_default_jobs prev) @@ fun () ->
      let g = Bbc.Potential.improvement_graph ~objective ~best_only ~candidates inst in
      if edges g <> edges reference then
        failf "%s: improvement graph (best_only %b, %d jobs): %d arcs, reference %d" label best_only
          jobs (Bbc_graph.Digraph.edge_count g) (List.length expected)
      else
        match
          Bbc.Potential.has_finite_improvement_property ~objective ~best_only ~candidates
            ~max_profiles:max_int inst
        with
        | Some fip when fip = acyclic size expected -> ok
        | _ -> failf "%s: FIP verdict (best_only %b) differs from the reference" label best_only
    in
    Result.bind
      (check_all search [ (1, max_int); (3, max_int); (max_int, max_int); (max_int, (size / 3) + 1) ])
    @@ fun () ->
    Result.bind (check_all analyze [ 1; 2 ]) @@ fun () ->
    check_all graph [ (false, 1); (false, 2); (true, 1); (true, 2) ]
  in
  check_all
    (fun candidates ->
      if X.space_size (snd candidates) > float_of_int space_cap then ok
      else check_all (space candidates) [ Bbc.Objective.Sum; Bbc.Objective.Max ])
    [
      ("full", X.candidate_lists inst);
      ("maximal", Array.init (I.n inst) (X.maximal_strategies inst));
    ]

(* General games with budgets up to 5 against costs of 1 or 2, and
   weights and lengths of at most 2, so many subsets tie: most nodes can
   buy three links, where [Exact] runs its bounded search. *)
let ic_budgets =
  let open Gen in
  let* n = int_range 2 8 in
  let table lo hi =
    let+ cells = tuple_list (List.init (n * n) (fun _ -> int_range lo hi)) in
    let a = Array.of_list cells in
    Array.init n (fun u -> Array.init n (fun v -> if u = v then 0 else a.((u * n) + v)))
  in
  let* weight = table 0 2 in
  let* cost = table 1 2 in
  let* length = table 1 2 in
  let* budget = tuple_list (List.init n (fun _ -> int_bound 5)) in
  let inst = I.general ~weight ~cost ~length ~budget:(Array.of_list budget) () in
  let+ cfg = Domain_gen.config_for inst in
  (inst, cfg)

(* [Exact]'s decision, bounded or not, against the plain DFS: the first
   minimum of [enumerate]'s sequence, and [Eval]'s current cost. *)
let prop_bounded_vs_exact (inst, cfg) =
  let csr = C.to_csr inst cfg in
  check_all
    (fun objective ->
      let obj = Bbc.Objective.to_string objective in
      check_all
        (fun u ->
          let best_s, best_c =
            List.fold_left
              (fun (bs, bc) (s, c) -> if c < bc then (List.sort compare s, c) else (bs, bc))
              ([], max_int)
              (sequence (BR.enumerate ~objective inst cfg u))
          in
          let current = E.node_cost ~objective inst cfg u in
          check_all
            (fun (provider, csr) ->
              let d = BR.decide ~objective ?csr ~search:Exact inst cfg u in
              if d.best.strategy = best_s && d.best.cost = best_c && d.current = current then ok
              else
                failf "%s node %d, %s: decide gives %s current %d, plain DFS %s current %d" obj u
                  provider
                  (show_verdict (Some (d.best.strategy, d.best.cost)))
                  d.current
                  (show_verdict (Some (best_s, best_c)))
                  current)
            [ ("scratch", None); ("csr", Some csr) ])
        (nodes inst))
    [ Bbc.Objective.Sum; Bbc.Objective.Max ]

let br_suite =
  let render (inst, cfg) = (inst, Some cfg, "") in
  [
    Packed
      { name = "br_vs_exhaustive"; gen = ic_tiny; prop = prop_br_vs_exhaustive; render };
    Packed
      {
        name = "enumerate_vs_ref";
        gen = ic_tiny;
        prop = prop_enumerate_vs_reference;
        render;
      };
    Packed
      {
        name = "closed_form_vs_ref";
        gen = k1_walk;
        prop = prop_k1_walk_vs_reference;
        render = (fun (inst, cfg, ms) -> (inst, Some cfg, moves_to_string ms));
      };
    Packed
      {
        name = "k1_scan_vs_per_node";
        gen = k1_walk;
        prop = prop_k1_scan_vs_per_node;
        render = (fun (inst, cfg, ms) -> (inst, Some cfg, moves_to_string ms));
      };
    Packed
      { name = "improving_iff"; gen = ic_tiny; prop = prop_improving_iff; render };
    Packed { name = "bounded_vs_exact"; gen = ic_budgets; prop = prop_bounded_vs_exact; render };
    Packed
      {
        name = "activation_cost_vs_eval";
        gen = ic_activation;
        prop = prop_activation_cost_vs_eval;
        render =
          (fun (inst, cfg, sample, seed) ->
            (inst, Some cfg, Printf.sprintf "sample %d seed %d" sample seed));
      };
    Packed
      {
        name = "walk_snapshot_vs_fresh";
        gen = ic_walk;
        prop = prop_walk_snapshot_vs_fresh;
        render =
          (fun (inst, cfg, sample, seed) ->
            (inst, Some cfg, Printf.sprintf "sample %d seed %d" sample seed));
      };
    Packed
      {
        name = "engine_vs_reference";
        gen = tiny_instance;
        prop = prop_engine_vs_reference;
        render = (fun inst -> (inst, None, ""));
      };
    Packed
      {
        name = "local_search_vs_reference";
        gen = instance_seed;
        prop = prop_local_search_vs_reference;
        render = (fun (inst, seed) -> (inst, None, Printf.sprintf "seed %d" seed));
      };
  ]

(* ---------------------------------------------------------------- *)
(* Suite server: in-process engine vs direct scratch-engine calls.   *)

let icp =
  let open Gen in
  let* inst, cfg = Domain_gen.instance_config ~max_n:7 () in
  let+ ops = Domain_gen.program inst in
  (inst, cfg, ops)

(* The mirror replicates a session's walk counters with direct library
   calls and no cost memo, so every comparison also checks that the
   session's memo is dropped on every configuration change. *)
type mirror = {
  inst : I.t;
  mutable cfg : C.t;
  mutable walk_index : int;
  mutable walk_quiet : int;
  mutable walk_deviations : int;
}

let mirror_node_cost m u = E.node_cost m.inst m.cfg u

let mirror_walk_step m =
  let n = I.n m.inst in
  let node = m.walk_index mod n in
  let current = mirror_node_cost m node in
  let best = BR.exact m.inst m.cfg node in
  let moved = best.BR.cost < current in
  if moved then begin
    m.cfg <- C.with_strategy m.cfg node best.BR.strategy;
    m.walk_deviations <- m.walk_deviations + 1;
    m.walk_quiet <- 0
  end
  else m.walk_quiet <- m.walk_quiet + 1;
  m.walk_index <- m.walk_index + 1

let mirror_walk_converged m =
  let n = I.n m.inst in
  m.walk_index mod n = 0 && m.walk_quiet >= n

(* Expected "ok" payload of one operation, built with the same field
   order as Handlers so the comparison can be on rendered JSON. *)
let mirror_expected m (op : Domain_gen.op) =
  match op with
  | Domain_gen.Cost_all ->
      let costs = E.all_costs ~jobs:1 m.inst m.cfg in
      let social = Array.fold_left ( + ) 0 costs in
      Bbc.Codec.costs_to_json ~objective:Bbc.Objective.Sum ~social costs
  | Domain_gen.Cost_node u ->
      Json.Obj [ ("node", Json.Int u); ("cost", Json.Int (mirror_node_cost m u)) ]
  | Domain_gen.Best_response_of u ->
      let r = BR.exact m.inst m.cfg u in
      let current = mirror_node_cost m u in
      Json.Obj
        [
          ("node", Json.Int u);
          ("strategy", Json.List (List.map (fun v -> Json.Int v) r.BR.strategy));
          ("cost", Json.Int r.BR.cost);
          ("current", Json.Int current);
          ("improving", Json.Bool (r.BR.cost < current));
        ]
  | Domain_gen.Stable -> (
      match
        Bbc.Stability.find_deviation ~jobs:1 m.inst m.cfg
      with
      | None ->
          Json.Obj [ ("stable", Json.Bool true); ("feasible", Json.Bool true) ]
      | Some d ->
          Json.Obj
            [
              ("stable", Json.Bool false);
              ("feasible", Json.Bool true);
              ( "deviation",
                Json.Obj
                  [
                    ("node", Json.Int d.Bbc.Stability.node);
                    ("current", Json.Int d.current_cost);
                    ("cost", Json.Int d.better.BR.cost);
                    ( "strategy",
                      Json.List
                        (List.map (fun v -> Json.Int v) d.better.BR.strategy) );
                  ] );
            ])
  | Domain_gen.Apply_move (u, targets) ->
      m.cfg <- C.with_strategy m.cfg u targets;
      m.walk_quiet <- 0;
      Json.Obj
        [ ("applied", Json.Bool true); ("cost", Json.Int (mirror_node_cost m u)) ]
  | Domain_gen.Step_dynamics steps ->
      let executed = ref 0 in
      while !executed < steps && not (mirror_walk_converged m) do
        mirror_walk_step m;
        incr executed
      done;
      let n = I.n m.inst in
      Json.Obj
        [
          ("steps", Json.Int !executed);
          ("index", Json.Int m.walk_index);
          ("round", Json.Int (m.walk_index / n));
          ("deviations", Json.Int m.walk_deviations);
          ("converged", Json.Bool (mirror_walk_converged m));
        ]

let op_params session (op : Domain_gen.op) =
  let s = ("session", Json.Str session) in
  match op with
  | Domain_gen.Cost_all -> ("cost", [ s ])
  | Domain_gen.Cost_node u -> ("cost", [ s; ("node", Json.Int u) ])
  | Domain_gen.Best_response_of u ->
      ("best_response", [ s; ("node", Json.Int u) ])
  | Domain_gen.Stable -> ("stable", [ s ])
  | Domain_gen.Apply_move (u, targets) ->
      ( "apply_move",
        [
          s;
          ("node", Json.Int u);
          ("targets", Json.List (List.map (fun v -> Json.Int v) targets));
        ] )
  | Domain_gen.Step_dynamics steps ->
      ("step_dynamics", [ s; ("steps", Json.Int steps) ])

(* One request through the engine's full submit/run_batch path (jobs=1,
   so batches execute deterministically); returns the "ok" payload. *)
let roundtrip engine ~id meth params =
  let line =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Int id); ("method", Json.Str meth); ("params", Json.Obj params) ])
  in
  match Bbc_server.Engine.submit engine ~client:0 line with
  | `Reply r -> failf "request %d rejected at admission: %s" id r
  | `Queued -> (
      match Bbc_server.Engine.run_batch engine with
      | [ (_, response) ] -> (
          match Json.of_string response with
          | Error e -> failf "request %d: unparsable response (%s)" id e
          | Ok payload -> (
              match Json.member "ok" payload with
              | Some v -> Ok v
              | None -> failf "request %d: server error %s" id response))
      | other -> failf "request %d: expected 1 response, got %d" id (List.length other))

let prop_server_vs_direct (inst, cfg, ops) =
  let config =
    { (Bbc_server.Engine.default_config ()) with jobs = Some 1 }
  in
  let engine = Bbc_server.Engine.create config in
  let load =
    let params =
      [
        ("instance", Bbc.Codec.instance_to_json inst);
        ("config", Bbc.Codec.config_to_json cfg);
      ]
    in
    match roundtrip engine ~id:0 "load_instance" params with
    | Error _ as e -> e
    | Ok summary -> (
        match Json.member "session" summary with
        | Some (Json.Str id) -> Ok id
        | _ -> failf "load_instance: no session id in %s" (Json.to_string summary))
  in
  match load with
  | Error e -> Error e
  | Ok session ->
      let m =
        { inst; cfg; walk_index = 0; walk_quiet = 0; walk_deviations = 0 }
      in
      let id = ref 0 in
      check_all
        (fun op ->
          incr id;
          let meth, params = op_params session op in
          match roundtrip engine ~id:!id meth params with
          | Error _ as e -> e
          | Ok got ->
              let expected = mirror_expected m op in
              let got_s = Json.to_string got in
              let expected_s = Json.to_string expected in
              if String.equal got_s expected_s then ok
              else
                failf "op %d (%s): server %s, direct %s" !id
                  (Domain_gen.ops_to_string [ op ])
                  got_s expected_s)
        ops

let server_suite =
  let render (inst, cfg, ops) = (inst, Some cfg, Domain_gen.ops_to_string ops) in
  [
    Packed
      { name = "server_vs_direct"; gen = icp; prop = prop_server_vs_direct; render };
  ]

(* ---------------------------------------------------------------- *)
(* Suite selfcheck: a planted off-by-one the harness must catch.     *)

(* Deliberately wrong oracle: social cost summed from node 1, skipping
   node 0 — every instance where node 0 has positive cost refutes it.
   check_fuzz.sh asserts this suite FAILS and that the counterexample
   shrinks to n <= 8. *)
let broken_social_cost inst cfg =
  let total = ref 0 in
  for u = 1 to I.n inst - 1 do
    total := !total + E.node_cost inst cfg u
  done;
  !total

let prop_planted_bug (inst, cfg) =
  let reference = E.social_cost ~jobs:1 inst cfg in
  let broken = broken_social_cost inst cfg in
  if reference = broken then ok
  else failf "social cost: reference %d, test oracle %d" reference broken

let selfcheck_suite =
  let render (inst, cfg) = (inst, Some cfg, "") in
  [
    Packed
      {
        name = "planted_social_cost";
        gen = Domain_gen.instance_config ~max_n:10 ();
        prop = prop_planted_bug;
        render;
      };
  ]

(* ---------------------------------------------------------------- *)
(* Suite campaign: the spec codec round-trips, and a campaign unit
   replays the exact walk a direct Dynamics.run produces.             *)

module Trial = Bbc.Trial
module Spec = Bbc_campaign.Spec

(* Random-generator trials only (no catalog/family constructions):
   every draw is valid by construction, so codec and trace properties
   never trip over a deliberate validation error. *)
let trial_gen : Trial.t Gen.t =
  let open Gen in
  let* n = int_range 2 10 in
  let* k = int_range 1 (min 3 (n - 1)) in
  let* generator =
    oneof
      [
        (let* zero_pct = int_range 0 90 in
         let+ max_weight = int_range 1 5 in
         Trial.Sparse { zero_pct; max_weight });
        (let+ max_budget = int_range 0 4 in
         Trial.Budgets { max_budget });
        (let+ max_cost = int_range 1 5 in
         Trial.Costs { max_cost });
        (let+ span = int_range 1 5 in
         Trial.Metric { span });
        (let+ flips = int_range 0 5 in
         Trial.Perturbed { flips });
      ]
  in
  let* init = oneofl [ Trial.Empty; Trial.Random_start ] in
  let* scheduler = oneofl [ Trial.Round_robin; Trial.Random_order; Trial.Max_cost_first ] in
  let* policy =
    oneof
      [
        return Trial.Exact;
        return Trial.First_improvement;
        (let+ s = int_range 1 4 in
         Trial.Sampled s);
      ]
  in
  let* objective = oneofl [ Bbc.Objective.Sum; Bbc.Objective.Max ] in
  let* max_rounds = int_range 1 30 in
  let+ seed = int_bound 10_000 in
  {
    Trial.generator = generator;
    n;
    k;
    h = 2;
    l = 3;
    init;
    scheduler;
    policy;
    objective;
    max_rounds;
    seed;
  }

let spec_gen : Spec.t Gen.t =
  let open Gen in
  let point_gen =
    let* t = trial_gen in
    return { Spec.generator = t.Trial.generator; n = t.Trial.n; k = t.Trial.k; h = 2; l = 3 }
  in
  let* points = list_of_size (int_range 1 3) point_gen in
  let* seeds_per_point = int_range 1 3 in
  let* inits = oneofl [ [ Trial.Empty ]; [ Trial.Random_start ]; [ Trial.Empty; Trial.Random_start ] ] in
  let* schedulers =
    oneofl [ [ Trial.Round_robin ]; [ Trial.Max_cost_first ]; [ Trial.Round_robin; Trial.Random_order ] ]
  in
  let* policies = oneofl [ [ Trial.Exact ]; [ Trial.First_improvement; Trial.Sampled 2 ] ] in
  let* objectives = oneofl [ [ Bbc.Objective.Sum ]; [ Bbc.Objective.Sum; Bbc.Objective.Max ] ] in
  let* max_rounds = int_range 1 20 in
  let+ seed = int_bound 10_000 in
  { Spec.name = "fuzz"; seed; seeds_per_point; max_rounds; points; inits; schedulers; policies; objectives }

let prop_spec_roundtrip s =
  let rendered = Json.to_string (Spec.to_json s) in
  match Spec.of_json (Spec.to_json s) with
  | Error e -> failf "spec decode failed: %s" e
  | Ok s' ->
      if s' <> s then failf "spec decode changed the value (%s)" rendered
      else
        let re = Json.to_string (Spec.to_json s') in
        if re <> rendered then failf "spec rendering not canonical: %s vs %s" rendered re
        else
          (* The string path (parse + decode + validate) agrees too. *)
          (match Spec.of_string rendered with
          | Ok s'' when s'' = s -> ok
          | Ok _ -> failf "of_string changed the value"
          | Error e -> failf "of_string rejected a rendered spec: %s" e)

(* The 1-unit campaign whose grid is exactly [t]'s axes. *)
let one_unit_spec t =
  {
    Spec.name = "fuzz";
    seed = t.Trial.seed;
    seeds_per_point = 1;
    max_rounds = t.Trial.max_rounds;
    points =
      [ { Spec.generator = t.Trial.generator; n = t.Trial.n; k = t.Trial.k; h = 2; l = 3 } ];
    inits = [ t.Trial.init ];
    schedulers = [ t.Trial.scheduler ];
    policies = [ t.Trial.policy ];
    objectives = [ t.Trial.objective ];
  }

(* A 1-unit campaign executes Spec.unit 0 through Trial.run — its
   activation trace must be bit-identical to a direct Dynamics.run on
   the same materialized inputs. *)
let prop_unit_trace_vs_dynamics t =
  let u = Spec.unit (one_unit_spec t) 0 in
  let trace run_fn =
    let steps = ref [] in
    let on_step (s : Bbc.Dynamics.step) =
      steps := (s.index, s.round, s.node, s.moved, s.strategy, s.cost_after) :: !steps
    in
    let r = run_fn ~on_step in
    (r, List.rev !steps)
  in
  match Trial.build u with
  | Error e -> failf "unit build failed: %s" e
  | Ok (inst, cfg) ->
      let direct, direct_trace =
        trace (fun ~on_step ->
            Bbc.Dynamics.run ~objective:u.Trial.objective ~policy:(Trial.policy_of u)
              ~on_step ~scheduler:(Trial.scheduler_of u)
              ~max_rounds:u.Trial.max_rounds inst cfg)
      in
      let via_trial, trial_trace =
        trace (fun ~on_step ->
            match Trial.run ~on_step u with
            | Ok s -> s
            | Error e -> failwith ("trial run failed: " ^ e))
      in
      if trial_trace <> direct_trace then
        failf "traces differ after %d vs %d steps"
          (List.length trial_trace) (List.length direct_trace)
      else
        let direct_summary =
          let kind, (stats : Bbc.Dynamics.stats), final =
            match direct with
            | Bbc.Dynamics.Converged (c, s) -> (Trial.Converged, s, c)
            | Bbc.Dynamics.Cycled { config; period; stats } ->
                (Trial.Cycled period, stats, config)
            | Bbc.Dynamics.Exhausted (c, s) -> (Trial.Exhausted, s, c)
          in
          {
            Trial.outcome = kind;
            rounds = stats.Bbc.Dynamics.rounds;
            steps = stats.Bbc.Dynamics.steps;
            deviations = stats.Bbc.Dynamics.deviations;
            social_cost = E.social_cost ~objective:u.Trial.objective inst final;
            strongly_connected =
              Bbc_graph.Scc.is_strongly_connected (C.to_graph inst final);
          }
        in
        if via_trial <> direct_summary then failf "summaries differ" else ok

(* A campaign counterexample renders as its spec, which
   [bbc campaign run --spec] loads, beside unit 0's instance. *)
let spec_render s =
  let detail = Json.to_string (Spec.to_json s) in
  match Trial.build (Spec.unit s 0) with
  | Ok (inst, cfg) -> (inst, Some cfg, detail)
  | Error _ -> (I.uniform ~n:2 ~k:1, None, detail)

let campaign_suite =
  [
    Packed
      {
        name = "spec_json_roundtrip";
        gen = spec_gen;
        prop = prop_spec_roundtrip;
        render = spec_render;
      };
    Packed
      {
        name = "unit_vs_dynamics";
        gen = trial_gen;
        prop = prop_unit_trace_vs_dynamics;
        render = (fun t -> spec_render (one_unit_spec t));
      };
  ]

(* ---------------------------------------------------------------- *)
(* Registry and driver.                                              *)

let suites =
  [
    ("csr", csr_suite);
    ("msbfs", msbfs_suite);
    ("br", br_suite);
    ("server", server_suite);
    ("campaign", campaign_suite);
    ("selfcheck", selfcheck_suite);
  ]

let suite_names = List.map fst suites
let all_suites = List.filter (fun name -> name <> "selfcheck") suite_names

let expand_suites = function
  | "all" -> Ok all_suites
  | name when List.mem_assoc name suites -> Ok [ name ]
  | name ->
      Error
        (Printf.sprintf "unknown suite %S (expected all, %s)" name
           (String.concat ", " suite_names))

(* Independent deterministic seed per property: mixing the suite and
   property names keeps a property's stream stable when its neighbours
   are added or removed. *)
let derive_seed base suite name = base lxor Hashtbl.hash (suite, name)

let run_packed opts suite (Packed p) =
  let prop_seed = derive_seed opts.seed suite p.name in
  match
    Runner.run ~count:opts.count ~max_shrink_steps:opts.max_shrink_steps
      ~seed:prop_seed p.gen p.prop
  with
  | Error e -> Error (Printf.sprintf "%s/%s: %s" suite p.name e)
  | Ok (failure, stats) ->
      let failure =
        Option.map
          (fun (f : _ Runner.failure) ->
            let instance, config, detail = p.render f.shrunk in
            {
              prop = p.name;
              case = f.case;
              steps_used = f.steps_used;
              message = f.shrunk_error;
              instance;
              config;
              detail;
            })
          failure
      in
      Ok { suite; name = p.name; prop_seed; stats; failure }

let run_suite opts name =
  match List.assoc_opt name suites with
  | None ->
      Error
        (Printf.sprintf "unknown suite %S (expected %s)" name
           (String.concat ", " suite_names))
  | Some packed ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
            match run_packed opts name p with
            | Error _ as e -> e
            | Ok r -> go (r :: acc) rest)
      in
      go [] packed
