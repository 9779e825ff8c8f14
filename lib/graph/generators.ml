let directed_ring n =
  if n < 2 then invalid_arg "Generators.directed_ring: n must be >= 2";
  let g = Digraph.create n in
  for i = 0 to n - 1 do
    Digraph.add_edge g i ((i + 1) mod n) 1
  done;
  g

let directed_path n =
  let g = Digraph.create n in
  for i = 0 to n - 2 do
    Digraph.add_edge g i (i + 1) 1
  done;
  g

let complete n =
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then Digraph.add_edge g u v 1
    done
  done;
  g

let random_k_out rng ~n ~k =
  if k > n - 1 then invalid_arg "Generators.random_k_out: k > n - 1";
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    (* Sample k distinct targets from [0, n-1) and skip over u. *)
    let targets = Bbc_prng.Splitmix.sample_without_replacement rng k (n - 1) in
    List.iter (fun t -> Digraph.add_edge g u (if t >= u then t + 1 else t) 1) targets
  done;
  g

let gnp rng ~n ~p =
  if p < 0. || p > 1. then invalid_arg "Generators.gnp: p out of [0,1]";
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Bbc_prng.Splitmix.float rng 1.0 < p then Digraph.add_edge g u v 1
    done
  done;
  g
