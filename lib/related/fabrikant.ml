module Config = Bbc.Config
module Digraph = Bbc_graph.Digraph
module Csr = Bbc_graph.Csr

type t = { n : int; alpha : int; penalty : int }

let create ?penalty ~n ~alpha () =
  if n < 2 then invalid_arg "Fabrikant.create: n must be >= 2";
  if alpha < 0 then invalid_arg "Fabrikant.create: alpha must be >= 0";
  let penalty = Option.value ~default:(4 * n * (alpha + 1)) penalty in
  { n; alpha; penalty }

(* The undirected realization, as a CSR snapshot: both directions for
   every bought link. *)
let undirected_graph t config =
  let g = Digraph.create t.n in
  for u = 0 to t.n - 1 do
    List.iter
      (fun v ->
        Digraph.add_edge g u v 1;
        Digraph.add_edge g v u 1)
      (Config.targets config u)
  done;
  Csr.of_digraph g

let node_cost_on t config graph u =
  let dist = Array.make t.n Csr.unreachable in
  Csr.bfs graph (Bbc_graph.Workspace.scratch (Bbc_graph.Workspace.get ())) ~src:u ~dist;
  let total = ref (t.alpha * Config.strategy_size config u) in
  for v = 0 to t.n - 1 do
    if v <> u then
      total := !total + (if dist.(v) = Csr.unreachable then t.penalty else dist.(v))
  done;
  !total

let node_cost t config u = node_cost_on t config (undirected_graph t config) u

let social_cost t config =
  let g = undirected_graph t config in
  let total = ref 0 in
  for u = 0 to t.n - 1 do
    total := !total + node_cost_on t config g u
  done;
  !total

(* All subsets of [0, n) \ {u}, in increasing bitmask order. *)
let best_response t config u =
  let others =
    List.filter (( <> ) u) (List.init t.n Fun.id) |> Array.of_list
  in
  let best_set = ref [] and best_cost = ref max_int in
  let subsets = 1 lsl Array.length others in
  for mask = 0 to subsets - 1 do
    let s = ref [] in
    Array.iteri (fun i v -> if mask land (1 lsl i) <> 0 then s := v :: !s) others;
    let config' = Config.with_strategy config u !s in
    let c = node_cost t config' u in
    if c < !best_cost then begin
      best_cost := c;
      best_set := List.sort compare !s
    end
  done;
  (!best_set, !best_cost)

let is_stable t config =
  let g = undirected_graph t config in
  let rec go u =
    if u >= t.n then true
    else begin
      let current = node_cost_on t config g u in
      let _, best = best_response t config u in
      best >= current && go (u + 1)
    end
  in
  go 0

let star t = Config.of_lists t.n (Array.init t.n (fun u -> if u = 0 then List.init (t.n - 1) (fun v -> v + 1) else []))

let complete t =
  Config.of_lists t.n
    (Array.init t.n (fun u -> List.filteri (fun _ v -> v > u) (List.init t.n Fun.id)))

let empty t = Config.empty t.n

let run_dynamics ?(max_rounds = 100) t config0 =
  let rec round config r =
    if r >= max_rounds then None
    else begin
      let changed = ref false in
      let config = ref config in
      for u = 0 to t.n - 1 do
        let current = node_cost t !config u in
        let s, best = best_response t !config u in
        if best < current then begin
          config := Config.with_strategy !config u s;
          changed := true
        end
      done;
      if !changed then round !config (r + 1) else Some (!config, r + 1)
    end
  in
  round config0 0
