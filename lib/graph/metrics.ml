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
