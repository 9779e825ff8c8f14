module Digraph = Bbc_graph.Digraph

type space = {
  profiles : Config.t array;
  index : Config.t -> int;
  candidates : int list list array;
}

let enumerate_space ?candidates ?(max_profiles = 200_000) instance =
  let candidates = Exhaustive.candidate_lists ?candidates instance in
  if Exhaustive.space_size candidates > float_of_int max_profiles then None
  else begin
    let rows = Exhaustive.candidate_rows instance candidates in
    let n = Array.length rows in
    let profiles = Array.make (int_of_float (Exhaustive.space_size candidates)) (Config.empty n) in
    ignore
      (Exhaustive.blocks ~jobs:1 instance rows ~start:(fun _ -> Option.some) ~block:(fun _ b ->
           Array.iteri
             (fun j _ ->
               b.set j;
               profiles.(b.first + j) <- Config.snapshot b.view)
             rows.(n - 1);
           false));
    let at = Config.Tbl.create (Array.length profiles) in
    Array.iteri (fun i c -> Config.Tbl.replace at c i) profiles;
    Some { profiles; index = Config.Tbl.find at; candidates }
  end

(* Per (profile, node u), one {!Best_response.enumerate} prices every
   feasible strategy of u from one G_{-u} row set: u's current cost and
   each candidate's are read off it by enumeration ordinal (a candidate
   that is not affordable, only possible in a restricted space, by
   {!Eval.node_cost}), and an arc's head is the index with u's digit
   changed.  The last node's rows are the same across a block, so it is
   enumerated once per block.  Each profile's heads are kept in its own
   slot, and the arcs are added in enumeration order. *)
let improvement_graph ?(objective = Objective.Sum) ?(best_only = false) ?candidates instance =
  let candidates = Exhaustive.candidate_lists ?candidates instance in
  let rows = Exhaustive.candidate_rows instance candidates in
  let size = int_of_float (Exhaustive.space_size candidates) in
  let n = Array.length rows in
  let last = n - 1 and stride = Array.make n 1 in
  (* [stride.(u)] weighs node u's candidate position in a profile index. *)
  for u = n - 2 downto 0 do
    stride.(u) <- stride.(u + 1) * Array.length rows.(u + 1)
  done;
  let ords = Array.init n (Exhaustive.ordinals instance rows) in
  let heads = Array.make size [||] in
  let start _ _ = Some (Array.map (fun (_, count) -> Array.make count 0) ords) in
  let block costs (b : Exhaustive.block) =
    Array.iteri
      (fun jl _ ->
        b.set jl;
        let i = b.first + jl in
        let csr = Best_response.snapshot instance b.view and out = ref [] in
        for u = 0 to last do
          let ord, _ = ords.(u) and cost = costs.(u) in
          if u < last || jl = 0 then begin
            let k = ref 0 in
            Best_response.enumerate ~objective ?csr instance b.view u ~on_subset:(fun _ c ->
                cost.(!k) <- c;
                incr k;
                false)
          end;
          let ju = i / stride.(u) mod Array.length rows.(u) in
          let cost_of j =
            if ord.(j) >= 0 then cost.(ord.(j))
            else
              Eval.node_cost ~objective instance
                (Config.with_strategy b.view u (Array.to_list rows.(u).(j)))
                u
          in
          let current = cost_of ju in
          let arc j = out := (i + ((j - ju) * stride.(u))) :: !out in
          if best_only then begin
            (* The first optimum in enumeration order, if a candidate. *)
            let o = ref 0 in
            Array.iteri (fun k c -> if c < cost.(!o) then o := k) cost;
            if cost.(!o) < current then Option.iter arc (Array.find_index (( = ) !o) ord)
          end
          else Array.iteri (fun j _ -> if cost_of j < current then arc j) rows.(u)
        done;
        heads.(i) <- Array.of_list (List.rev !out))
      rows.(last);
    false
  in
  ignore (Exhaustive.blocks ~jobs:(Bbc_parallel.default_jobs ()) instance rows ~start ~block);
  let g = Digraph.create size in
  Array.iteri (fun i -> Array.iter (fun j -> Digraph.add_edge g i j 1)) heads;
  g

let has_finite_improvement_property ?objective ?best_only ?candidates ?(max_profiles = 200_000)
    instance =
  let candidates = Exhaustive.candidate_lists ?candidates instance in
  if Exhaustive.space_size candidates > float_of_int max_profiles then None
  else begin
    let g = improvement_graph ?objective ?best_only ~candidates instance in
    (* Acyclic iff every SCC is a singleton and no self-loops (we never
       add self-loops, and strict improvement forbids them anyway). *)
    let scc = Bbc_graph.Scc.compute g in
    Some (scc.count = Digraph.n g)
  end

let sinks_are_equilibria ?objective instance space g =
  let ok = ref true in
  Array.iteri
    (fun i config ->
      let is_sink = Digraph.out_degree g i = 0 in
      let is_ne = Stability.is_stable ?objective instance config in
      if is_sink <> is_ne then ok := false)
    space.profiles;
  !ok
