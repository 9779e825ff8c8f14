(* Uniform k = 1 inputs on functional profiles — the shape on which
   Best_response takes its closed form — and reference answers derived
   from Bbc_fuzz.Reference.enumerate, the plain subset DFS. *)

module I = Bbc.Instance
module C = Bbc.Config
module SM = Bbc_prng.Splitmix

(* Every node buys one random link or, one time in four, nothing. *)
let random_profile rng n =
  C.of_lists n
    (Array.init n (fun u ->
         if SM.int rng 4 = 0 then []
         else
           let v = SM.int rng (n - 1) in
           [ (if v >= u then v + 1 else v) ]))

(* Named (instance, profile) pairs: random profiles (cycles that avoid
   a node, nodes that buy nothing) under the default and a custom
   penalty, the two-node game, the empty profile, and ring+path. *)
let inputs () =
  let rng = SM.create 2024 in
  List.concat_map
    (fun n ->
      let inst = I.uniform ~n ~k:1 in
      let custom = I.with_penalty inst (3 * n + 1) in
      List.init 3 (fun i -> (Printf.sprintf "n=%d random %d" n i, inst, random_profile rng n))
      @ [
          (Printf.sprintf "n=%d custom M" n, custom, random_profile rng n);
          (Printf.sprintf "n=%d empty" n, inst, C.empty n);
        ])
    [ 2; 3; 9; 14 ]
  @ [
      (let inst, cfg = Bbc.Constructions.ring_with_path ~ring:8 ~path:4 in
       ("ring+path", inst, cfg));
    ]

let objectives = [ Bbc.Objective.Sum; Bbc.Objective.Max ]

(* The reference (strategy, cost) sequence of one node's enumeration. *)
let sequence ?objective inst cfg u =
  let acc = ref [] in
  Bbc_fuzz.Reference.enumerate ?objective inst cfg u ~on_subset:(fun s c ->
      acc := (List.sort compare s, c) :: !acc;
      false);
  List.rev !acc

(* First optimum in enumeration order, as Best_response.exact. *)
let exact ?objective inst cfg u =
  List.fold_left
    (fun (bs, bc) (s, c) -> if c < bc then (s, c) else (bs, bc))
    ([], max_int) (sequence ?objective inst cfg u)

(* First subset strictly below the current cost, as
   Best_response.improving. *)
let improving ?objective inst cfg u =
  let current = Bbc.Eval.node_cost ?objective inst cfg u in
  List.find_opt (fun (_, c) -> c < current) (sequence ?objective inst cfg u)
