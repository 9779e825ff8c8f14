let reachable_set g u =
  let n = Digraph.n g in
  let seen = Array.make n false in
  let stack = ref [ u ] in
  seen.(u) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
        stack := rest;
        Digraph.iter_out g x (fun y _ ->
            if not seen.(y) then begin
              seen.(y) <- true;
              stack := y :: !stack
            end)
  done;
  seen

let reach g u =
  let seen = reachable_set g u in
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen
