(* Maximum flow (Edmonds–Karp: BFS augmenting paths on the residual
   network), the oracle that cross-checks Bbc_flow.Mincost's feasibility
   answers.  The network's flows are left in the final state. *)

module Network = Bbc_flow.Network

let solve net ~source ~sink =
  if source = sink then invalid_arg "Maxflow.solve: source = sink";
  let n = Network.n net in
  let total = ref 0. in
  let continue = ref true in
  while !continue do
    (* BFS for an augmenting path in the residual network. *)
    let pred = Array.make n (-1) in
    let seen = Array.make n false in
    let queue = Queue.create () in
    seen.(source) <- true;
    Queue.add source queue;
    while (not (Queue.is_empty queue)) && not seen.(sink) do
      let u = Queue.take queue in
      List.iter
        (fun a ->
          let v = Network.dst net a in
          if (not seen.(v)) && Network.residual net a > Network.eps then begin
            seen.(v) <- true;
            pred.(v) <- a;
            Queue.add v queue
          end)
        (Network.out_arcs net u)
    done;
    if not seen.(sink) then continue := false
    else begin
      let rec bottleneck v acc =
        if v = source then acc
        else
          let a = pred.(v) in
          bottleneck (Network.src net a) (Float.min acc (Network.residual net a))
      in
      let amount = bottleneck sink infinity in
      let rec apply v =
        if v <> source then begin
          let a = pred.(v) in
          Network.push net a amount;
          apply (Network.src net a)
        end
      in
      apply sink;
      total := !total +. amount
    end
  done;
  !total
