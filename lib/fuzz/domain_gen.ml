(* BBC-domain generators; see domain_gen.mli for the distributions. *)

module I = Bbc.Instance
module C = Bbc.Config
module GI = Bbc.Gen_instance
module SM = Bbc_prng.Splitmix
open Gen

(* ------------------------------------------------------------------ *)
(* Instances.                                                          *)

let seed_gen = int_bound 0xFFFF

let matrix n cell =
  let cells = List.init (n * n) (fun _ -> cell) in
  let+ flat = tuple_list cells in
  let arr = Array.of_list flat in
  Array.init n (fun i -> Array.sub arr (i * n) n)

let uniform_instance ~min_n ~max_n ~max_k =
  let* n = int_range min_n max_n in
  let+ k = int_range 1 (min max_k (n - 1)) in
  I.uniform ~n ~k

(* Fully general tables: preferences may be 0 (including whole zero
   rows), costs may exceed budgets, lengths are short so the penalty
   regime is reachable at tiny n. *)
let general_instance ~min_n ~max_n =
  let* n = int_range min_n max_n in
  let* weight = matrix n (int_bound 3) in
  let* cost = matrix n (int_range 0 2) in
  let* length = matrix n (int_range 1 3) in
  let+ budget =
    let+ bs = tuple_list (List.init n (fun _ -> int_bound 3)) in
    Array.of_list bs
  in
  I.general ~weight ~cost ~length ~budget ()

(* Non-uniform preferences over unit costs/lengths — the [of_weights]
   shape the paper's Section 3 hardness instances live in. *)
let weighted_instance ~min_n ~max_n ~max_k =
  let* n = int_range min_n max_n in
  let* k = int_range 1 (min max_k (n - 1)) in
  let+ weight = matrix n (int_bound 3) in
  I.of_weights ~k weight

(* Paper families realized small; infeasible corners (willows that do
   not fit, etc.) fall back to the uniform game on the same (n, k). *)
let family_instance ~min_n ~max_n ~max_k =
  let* fam =
    oneofl [ GI.Ring; GI.Tree; GI.Circulant; GI.Random_k; GI.Willows_family ]
  in
  let* n = int_range min_n max_n in
  let* k = int_range 1 (min max_k (n - 1)) in
  let+ seed = seed_gen in
  match GI.streaming_reference fam ~n ~k ~seed with
  | inst, _ -> inst
  | exception Invalid_argument _ -> I.uniform ~n ~k

let instance ?(min_n = 2) ?(max_n = 10) ?(max_k = 3) () =
  if min_n < 2 then invalid_arg "Domain_gen.instance: min_n < 2";
  frequency
    [
      (3, uniform_instance ~min_n ~max_n ~max_k);
      (3, general_instance ~min_n ~max_n);
      (2, weighted_instance ~min_n ~max_n ~max_k);
      (2, family_instance ~min_n ~max_n ~max_k);
    ]

(* ------------------------------------------------------------------ *)
(* Feasible strategies.                                                *)

(* Normalize a raw pick list into a feasible strategy for [u]: map each
   pick into [0, n-1] \ {u}, drop duplicates, then keep greedily while
   the running spend stays within budget.  Removing picks (the list
   shrink) or lowering one (the pointwise shrink) re-normalizes to
   another feasible strategy, so shrinking never leaves the invariant. *)
let normalize inst u picks =
  let b = I.budget inst u in
  let seen = Hashtbl.create 8 in
  let spend = ref 0 in
  let keep =
    List.filter_map
      (fun p ->
        let v = if p >= u then p + 1 else p in
        if Hashtbl.mem seen v then None
        else begin
          Hashtbl.add seen v ();
          let c = I.cost inst u v in
          if !spend + c <= b then begin
            spend := !spend + c;
            Some v
          end
          else None
        end)
      picks
  in
  List.sort_uniq compare keep

let strategy_for inst u =
  let n = I.n inst in
  let max_picks = min 8 (n - 1) in
  let+ picks = list ~max_len:max_picks (int_bound (n - 2)) in
  normalize inst u picks

let config_for inst =
  let n = I.n inst in
  let gens = List.init n (fun u -> strategy_for inst u) in
  let+ rows = tuple_list gens in
  C.of_lists n (Array.of_list rows)

let instance_config ?min_n ?max_n ?max_k () =
  let* inst = instance ?min_n ?max_n ?max_k () in
  let+ cfg = config_for inst in
  (inst, cfg)

let node_of inst = int_bound (I.n inst - 1)

let moves ?(max_moves = 8) inst =
  let move =
    let* u = node_of inst in
    let+ s = strategy_for inst u in
    (u, s)
  in
  list ~max_len:max_moves move

(* Uniform k = 1 games on which every profile is functional: each node
   buys at most one link or none, under the default penalty or a custom
   one. *)
let uniform_k1_config ?(max_n = 10) () =
  let* n = int_range 2 max_n in
  let* penalty = oneof [ return None; map Option.some (int_range (n + 1) (6 * n)) ] in
  let inst = I.uniform ~n ~k:1 in
  let inst = match penalty with None -> inst | Some m -> I.with_penalty inst m in
  let+ cfg = config_for inst in
  (inst, cfg)

(* ------------------------------------------------------------------ *)
(* Graphs.                                                             *)

let graph ?(min_n = 2) ?(max_n = 12) ?(max_k = 3) () =
  let* n = int_range min_n max_n in
  oneof
    [
      (let* k = int_range 1 (min max_k (n - 1)) in
       let+ seed = seed_gen in
       Bbc_graph.Generators.random_k_out (SM.create seed) ~n ~k);
      (let* pct = int_bound 40 in
       let+ seed = seed_gen in
       Bbc_graph.Generators.gnp (SM.create seed) ~n ~p:(float_of_int pct /. 100.));
    ]

(* ------------------------------------------------------------------ *)
(* Server request programs.                                            *)

type op =
  | Cost_all
  | Cost_node of int
  | Best_response_of of int
  | Stable
  | Apply_move of int * int list
  | Step_dynamics of int

let op_to_string = function
  | Cost_all -> "cost"
  | Cost_node u -> Printf.sprintf "cost(%d)" u
  | Best_response_of u -> Printf.sprintf "best_response(%d)" u
  | Stable -> "stable"
  | Apply_move (u, s) ->
      Printf.sprintf "apply_move(%d,[%s])" u
        (String.concat ";" (List.map string_of_int s))
  | Step_dynamics r -> Printf.sprintf "step_dynamics(%d)" r

let ops_to_string ops = String.concat " " (List.map op_to_string ops)

let op_gen inst =
  frequency
    [
      (1, return Cost_all);
      (2, map (fun u -> Cost_node u) (node_of inst));
      (3, map (fun u -> Best_response_of u) (node_of inst));
      (2, return Stable);
      ( 3,
        let* u = node_of inst in
        let+ s = strategy_for inst u in
        Apply_move (u, s) );
      (2, map (fun r -> Step_dynamics r) (int_range 1 4));
    ]

let program ?(max_ops = 10) inst = list ~max_len:max_ops (op_gen inst)
