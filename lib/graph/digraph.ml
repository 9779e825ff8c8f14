type t = {
  size : int;
  adj : (int * int) list array; (* adj.(u) = [(v, length); ...] *)
  mutable edges : int;
  mutable non_unit : int; (* edges with length <> 1; see all_unit_lengths *)
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { size = n; adj = Array.make n []; edges = 0; non_unit = 0 }

let n g = g.size

let edge_count g = g.edges

let all_unit_lengths g = g.non_unit = 0

let check_vertex g u name =
  if u < 0 || u >= g.size then
    invalid_arg (Printf.sprintf "Digraph.%s: vertex %d out of range [0,%d)" name u g.size)

let count_non_unit l = if l <> 1 then 1 else 0

let add_edge g u v len =
  check_vertex g u "add_edge";
  check_vertex g v "add_edge";
  if u = v then invalid_arg "Digraph.add_edge: self-loop";
  if len < 0 then invalid_arg "Digraph.add_edge: negative length";
  (* Single tail-recursive pass: find the edge to replace (rebuilding
     only the scanned prefix) or learn it is absent and prepend. *)
  let rec replace prefix = function
    | [] ->
        g.adj.(u) <- (v, len) :: g.adj.(u);
        g.edges <- g.edges + 1;
        g.non_unit <- g.non_unit + count_non_unit len
    | (v', old_len) :: rest when v' = v ->
        g.adj.(u) <- List.rev_append prefix ((v, len) :: rest);
        g.non_unit <- g.non_unit - count_non_unit old_len + count_non_unit len
    | e :: rest -> replace (e :: prefix) rest
  in
  replace [] g.adj.(u)

let mem_edge g u v =
  check_vertex g u "mem_edge";
  List.exists (fun (v', _) -> v' = v) g.adj.(u)

let out_edges g u =
  check_vertex g u "out_edges";
  g.adj.(u)

let out_degree g u =
  check_vertex g u "out_degree";
  List.length g.adj.(u)

let iter_out g u f =
  check_vertex g u "iter_out";
  List.iter (fun (v, len) -> f v len) g.adj.(u)

let iter_edges g f =
  for u = 0 to g.size - 1 do
    List.iter (fun (v, len) -> f u v len) g.adj.(u)
  done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun u v len -> acc := f !acc u v len);
  !acc

let edges g =
  fold_edges g (fun acc u v len -> (u, v, len) :: acc) [] |> List.sort compare

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v, len) -> add_edge g u v len) es;
  g

let of_unit_edges n es = of_edges n (List.map (fun (u, v) -> (u, v, 1)) es)

let equal g1 g2 = g1.size = g2.size && edges g1 = edges g2
