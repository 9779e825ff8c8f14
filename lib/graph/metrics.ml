(* Fold [f] over the distances of [row] to every vertex but [src];
   [None] as soon as one of them is unreachable. *)
let fold_row row src ~init ~f =
  let acc = ref (Some init) in
  Array.iteri
    (fun v d ->
      if v <> src then
        match !acc with
        | None -> ()
        | Some a -> if d = Csr.unreachable then acc := None else acc := Some (f a d))
    row;
  !acc

let sweep g src =
  let csr = Csr.of_digraph g in
  let dist = Array.make (Csr.n csr) Csr.unreachable in
  Csr.sssp csr (Workspace.scratch (Workspace.get ())) ~src ~dist;
  dist

let eccentricity g u = if Digraph.n g <= 1 then Some 0 else fold_row (sweep g u) u ~init:0 ~f:max

let total_distance g u = fold_row (sweep g u) u ~init:0 ~f:( + )

(* [f] folded over every row of one all-pairs matrix. *)
let per_source g f = Array.mapi (fun u row -> f row u) (Apsp.matrix (Apsp.compute g))

(* Combine per-source results; [None] if any of them is [None]. *)
let combine_all f rs =
  Array.fold_left
    (fun acc r -> match (acc, r) with Some a, Some x -> Some (f a x) | _ -> None)
    (Some 0) rs

let eccentricities g = per_source g (fold_row ~init:0 ~f:max)

let diameter g = if Digraph.n g <= 1 then Some 0 else combine_all max (eccentricities g)

let radius g =
  if Digraph.n g <= 1 then Some 0
  else
    Array.fold_left
      (fun acc e ->
        match (acc, e) with
        | None, e -> e
        | Some b, Some e -> Some (min b e)
        | Some _, None -> acc)
      None (eccentricities g)

let sum_of_distances g = combine_all ( + ) (per_source g (fold_row ~init:0 ~f:( + )))

let average_distance g =
  let n = Digraph.n g in
  if n <= 1 then Some 0.
  else
    Option.map
      (fun s -> float_of_int s /. float_of_int (n * (n - 1)))
      (sum_of_distances g)

let max_out_degree g =
  let best = ref 0 in
  for u = 0 to Digraph.n g - 1 do
    best := max !best (Digraph.out_degree g u)
  done;
  !best

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  for u = 0 to Digraph.n g - 1 do
    let d = Digraph.out_degree g u in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [] |> List.sort compare
