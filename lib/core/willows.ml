type params = { k : int; h : int; l : int }

let validate { k; h; l } =
  if k < 2 then invalid_arg "Willows: k must be >= 2";
  if h < 1 then invalid_arg "Willows: h must be >= 1";
  if l < 0 then invalid_arg "Willows: l must be >= 0"

let pow k e =
  let rec go acc e = if e = 0 then acc else go (acc * k) (e - 1) in
  go 1 e

let tree_size { k; h; _ } = (pow k (h + 1) - 1) / (k - 1)

let leaves_per_tree { k; h; _ } = pow k h

let section_size p = tree_size p + (leaves_per_tree p * p.l)

let size p = p.k * section_size p

(* (h+l)^2/4 + h + 2l + 1 < n/k, exactly: multiply through by 4.
   n/k = section_size is an integer. *)
let satisfies_paper_restriction p =
  validate p;
  let lhs = ((p.h + p.l) * (p.h + p.l)) + (4 * p.h) + (8 * p.l) + 4 in
  lhs < 4 * section_size p

let max_tail_for ~k ~h =
  let rec go l best =
    if l > 1_000_000 then best
    else if satisfies_paper_restriction { k; h; l } then go (l + 1) l
    else best
  in
  go 0 (-1)

let root p i = i * section_size p

let roots p = List.init p.k (root p)

(* Node ids within section [i] (base = i * section_size):
   - tree nodes occupy local ids [0, tree_size) in BFS order
     (children of local [t] are [k*t + 1 .. k*t + k]);
   - the tail under the [j]-th leaf occupies local ids
     [tree_size + j*l .. tree_size + j*l + l - 1], top to bottom. *)
let build p =
  validate p;
  let n = size p in
  let k = p.k in
  let instance = Instance.uniform ~n ~k in
  let t_size = tree_size p in
  let internal = (t_size - 1) / k in
  (* internal node count: nodes with k children = (k^h - 1)/(k - 1) *)
  let strategies = Array.make n [] in
  for i = 0 to k - 1 do
    let base = i * section_size p in
    (* Tree edges. *)
    for t = 0 to internal - 1 do
      strategies.(base + t) <- List.init k (fun c -> base + (k * t) + c + 1)
    done;
    (* Chains: leaf + tail below it. *)
    let own_root = root p i in
    let all_roots = roots p in
    let pattern_a = List.filter (fun r -> r <> own_root) all_roots in
    let excluded_b = root p ((i + 1) mod k) in
    let pattern_b = List.filter (fun r -> r <> excluded_b) all_roots in
    for j = 0 to leaves_per_tree p - 1 do
      let chain d =
        (* d = 0 is the leaf; d in [1, l] are tail nodes. *)
        if d = 0 then base + internal + j
        else base + t_size + (j * p.l) + (d - 1)
      in
      for d = 0 to p.l do
        let v = chain d in
        if d = p.l then strategies.(v) <- all_roots
        else begin
          let pat = if (p.l - 1 - d) mod 2 = 0 then pattern_a else pattern_b in
          strategies.(v) <- chain (d + 1) :: pat
        end
      done
    done
  done;
  (instance, Config.of_lists n strategies)

let pp_params fmt p =
  Format.fprintf fmt "willows(k=%d, h=%d, l=%d, n=%d)" p.k p.h p.l (size p)

let representative_nodes p =
  validate p;
  (* Section 0's base is 0.  Tree levels: the first node of each level in
     BFS order; level d starts at index (k^d - 1)/(k - 1).  Tail depths:
     the first chain of the section (under leaf 0). *)
  let level_start d = (pow p.k d - 1) / (p.k - 1) in
  let tree = List.init (p.h + 1) level_start in
  let tails = List.init p.l (fun d -> tree_size p + d) in
  tree @ tails

let is_stable_sampled p instance config =
  Stability.nodes_stable instance config (representative_nodes p)
