type t = {
  size : int;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable caps : float array; (* original capacity *)
  mutable res : float array; (* residual capacity *)
  mutable costs : float array;
  mutable count : int;
  out : int list array; (* arc indices leaving each node, reverse order *)
}

let eps = 1e-9

let create n =
  if n < 0 then invalid_arg "Network.create";
  {
    size = n;
    srcs = Array.make 16 0;
    dsts = Array.make 16 0;
    caps = Array.make 16 0.;
    res = Array.make 16 0.;
    costs = Array.make 16 0.;
    count = 0;
    out = Array.make n [];
  }

let n net = net.size

let grow net =
  let cap = Array.length net.srcs in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 net.count;
    b
  in
  net.srcs <- extend net.srcs 0;
  net.dsts <- extend net.dsts 0;
  net.caps <- extend net.caps 0.;
  net.res <- extend net.res 0.;
  net.costs <- extend net.costs 0.

let push_raw net ~src ~dst ~capacity ~cost =
  if net.count = Array.length net.srcs then grow net;
  let a = net.count in
  net.srcs.(a) <- src;
  net.dsts.(a) <- dst;
  net.caps.(a) <- capacity;
  net.res.(a) <- capacity;
  net.costs.(a) <- cost;
  net.count <- net.count + 1;
  net.out.(src) <- a :: net.out.(src);
  a

let add_arc net ~src ~dst ~capacity ~cost =
  if src < 0 || src >= net.size || dst < 0 || dst >= net.size then
    invalid_arg "Network.add_arc: node out of range";
  if capacity < 0. then invalid_arg "Network.add_arc: negative capacity";
  if not (Float.is_finite cost) then invalid_arg "Network.add_arc: non-finite cost";
  let fwd = push_raw net ~src ~dst ~capacity ~cost in
  let _bwd = push_raw net ~src:dst ~dst:src ~capacity:0. ~cost:(-.cost) in
  fwd

let src net a = net.srcs.(a)
let dst net a = net.dsts.(a)
let cost net a = net.costs.(a)
let residual net a = net.res.(a)
let flow net a =
  if a land 1 <> 0 then invalid_arg "Network.flow: not a forward arc";
  (* Residual of the twin equals the flow pushed forward. *)
  net.res.(a lxor 1)

let push net a amount =
  net.res.(a) <- net.res.(a) -. amount;
  let b = a lxor 1 in
  net.res.(b) <- net.res.(b) +. amount

let out_arcs net u = net.out.(u)

let reset net =
  for a = 0 to net.count - 1 do
    net.res.(a) <- net.caps.(a)
  done
