type t = int array array
(* strategies.(u) = sorted array of distinct targets, none equal to u *)

let n t = Array.length t

let empty size = Array.make size [||]

let validate_strategy size u targets =
  let sorted = List.sort_uniq compare targets in
  if List.length sorted <> List.length targets then
    invalid_arg "Config: duplicate target in strategy";
  List.iter
    (fun v ->
      if v < 0 || v >= size then invalid_arg "Config: target out of range";
      if v = u then invalid_arg "Config: self-link")
    sorted;
  Array.of_list sorted

let of_lists size strategies =
  if Array.length strategies <> size then invalid_arg "Config.of_lists: length mismatch";
  Array.mapi (validate_strategy size) strategies

let of_graph g =
  Array.init (Bbc_graph.Digraph.n g) (fun u ->
      Bbc_graph.Digraph.out_edges g u |> List.map fst |> List.sort compare
      |> Array.of_list)

let targets t u = Array.to_list t.(u)

let strategy_size t u = Array.length t.(u)

let successors t =
  if Array.for_all (fun s -> Array.length s <= 1) t then
    Some (Array.map (fun s -> if Array.length s = 0 then -1 else s.(0)) t)
  else None

let with_strategy t u targets =
  let t' = Array.copy t in
  t'.(u) <- validate_strategy (Array.length t) u targets;
  t'

let spend instance t u =
  Array.fold_left (fun acc v -> acc + Instance.cost instance u v) 0 t.(u)

let feasible instance t =
  let ok = ref true in
  for u = 0 to Array.length t - 1 do
    if spend instance t u > Instance.budget instance u then ok := false
  done;
  !ok

let to_graph instance t =
  let size = Array.length t in
  let g = Bbc_graph.Digraph.create size in
  for u = 0 to size - 1 do
    Array.iter (fun v -> Bbc_graph.Digraph.add_edge g u v (Instance.length instance u v)) t.(u)
  done;
  g

let edge_count t = Array.fold_left (fun acc s -> acc + Array.length s) 0 t

let to_csr instance t =
  let size = Array.length t in
  let b = Bbc_graph.Csr.builder ~n:size ~m:(edge_count t) in
  for u = 0 to size - 1 do
    Array.iter (fun v -> Bbc_graph.Csr.add b u v (Instance.length instance u v)) t.(u)
  done;
  Bbc_graph.Csr.finish b

let csr_with_row instance t snap u =
  Bbc_graph.Csr.with_row snap u ~targets:t.(u)
    ~lengths:(Array.map (Instance.length instance u) t.(u))

let validated_strategy = validate_strategy

let unsafe_of_arrays (strategies : int array array) : t = strategies

let snapshot t = Array.map Array.copy t

let equal (a : t) (b : t) = a = b

let hash t =
  (* FNV-style polynomial hash over the flattened profile. *)
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor x) * 0x01000193 land max_int in
  Array.iter
    (fun s ->
      mix (-1);
      Array.iter mix s)
    t;
  !h

module Tbl = Hashtbl.Make (struct type nonrec t = t let equal = equal let hash = hash end)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun u s ->
      Format.fprintf fmt "%d -> [%a]@," u
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ") Format.pp_print_int)
        (Array.to_list s))
    t;
  Format.fprintf fmt "@]"
