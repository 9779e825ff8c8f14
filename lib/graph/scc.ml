type t = { count : int; component : int array }

(* Iterative Tarjan.  The explicit stack stores (vertex, remaining out-edge
   list) frames so deep graphs (paths, rings of size ~10^5) do not overflow
   the OCaml call stack. *)
let compute g =
  let n = Digraph.n g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let component = Array.make n (-1) in
  let next_index = ref 0 in
  let next_component = ref 0 in
  let visit root =
    let frames = ref [ (root, Digraph.out_edges g root) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (u, succs) :: rest -> (
          match succs with
          | [] ->
              frames := rest;
              (match rest with
              | (parent, _) :: _ ->
                  if lowlink.(u) < lowlink.(parent) then lowlink.(parent) <- lowlink.(u)
              | [] -> ());
              if lowlink.(u) = index.(u) then begin
                (* u is the root of a component: pop the stack down to u. *)
                let rec pop () =
                  match !stack with
                  | [] -> assert false
                  | v :: tl ->
                      stack := tl;
                      on_stack.(v) <- false;
                      component.(v) <- !next_component;
                      if v <> u then pop ()
                in
                pop ();
                incr next_component
              end
          | (v, _) :: succs' ->
              frames := (u, succs') :: rest;
              if index.(v) = -1 then begin
                index.(v) <- !next_index;
                lowlink.(v) <- !next_index;
                incr next_index;
                stack := v :: !stack;
                on_stack.(v) <- true;
                frames := (v, Digraph.out_edges g v) :: !frames
              end
              else if on_stack.(v) && index.(v) < lowlink.(u) then lowlink.(u) <- index.(v))
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  { count = !next_component; component }

let sizes scc =
  let s = Array.make scc.count 0 in
  Array.iter (fun c -> s.(c) <- s.(c) + 1) scc.component;
  s

let is_strongly_connected g = Digraph.n g = 0 || (compute g).count = 1

let condensation g scc =
  let c = Digraph.create scc.count in
  Digraph.iter_edges g (fun u v _len ->
      let cu = scc.component.(u) and cv = scc.component.(v) in
      if cu <> cv && not (Digraph.mem_edge c cu cv) then Digraph.add_edge c cu cv 1);
  c
