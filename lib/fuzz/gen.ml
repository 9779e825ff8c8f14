(* Generators with integrated shrink trees; see gen.mli for the model. *)

module SM = Bbc_prng.Splitmix

type 'a tree = Tree of 'a * 'a tree Seq.t

let root (Tree (x, _)) = x
let children (Tree (_, cs)) = cs

type 'a t = SM.t -> 'a tree

exception Discard

let generate ~seed g = g (SM.create seed)
let return x _rng = Tree (x, Seq.empty)

let rec map_tree f (Tree (x, cs)) =
  Tree (f x, Seq.map (map_tree f) cs)

let map f g rng = map_tree f (g rng)

(* Shrinks of the composed value: first the left component (re-running
   the continuation deterministically on a copy of the state it
   originally consumed), then the right.  This ordering is what makes
   instance-level shrinks (smaller n) win before value-level ones. *)
let bind g f rng =
  let rng_a = SM.split rng in
  let rng_f = SM.split rng in
  let rec go (Tree (a, ashr)) =
    let (Tree (b, bshr)) = f a (SM.copy rng_f) in
    Tree (b, Seq.append (Seq.map go ashr) bshr)
  in
  go (g rng_a)

let ( let* ) = bind
let ( let+ ) g f = map f g

let map2 f ga gb =
  let* a = ga in
  let+ b = gb in
  f a b

let pair ga gb = map2 (fun a b -> (a, b)) ga gb

let triple ga gb gc =
  let* a = ga in
  map2 (fun b c -> (a, b, c)) gb gc

(* Binary-halving shrink toward [lo]: candidates lo, then x - d for
   d = (x - lo) / 2, / 4, ... — classic qcheck/hedgehog order (most
   aggressive first). *)
let rec int_tree ~lo x =
  let rec halves d () =
    if d <= 0 then Seq.Nil
    else Seq.Cons (int_tree ~lo (x - d), halves (d / 2))
  in
  Tree (x, halves (x - lo))

let int_range lo hi rng =
  if lo > hi then invalid_arg "Gen.int_range: lo > hi";
  int_tree ~lo (SM.int_in_range rng ~lo ~hi)

let int_bound n = int_range 0 n

let bool rng =
  if SM.bool rng then Tree (true, Seq.return (Tree (false, Seq.empty)))
  else Tree (false, Seq.empty)

let oneof gens rng =
  match gens with
  | [] -> invalid_arg "Gen.oneof: empty list"
  | _ ->
      let i = SM.int rng (List.length gens) in
      List.nth gens i (SM.split rng)

let oneofl xs rng =
  match xs with
  | [] -> invalid_arg "Gen.oneofl: empty list"
  | _ ->
      let arr = Array.of_list xs in
      (* Index shrinks toward 0, so earlier constants are "smaller". *)
      map_tree (Array.get arr) (int_tree ~lo:0 (SM.int rng (Array.length arr)))

let frequency weighted rng =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weighted in
  if total <= 0 then invalid_arg "Gen.frequency: weights must be positive";
  let x = SM.int rng total in
  let rec pick acc = function
    | [] -> invalid_arg "Gen.frequency: empty list"
    | (w, g) :: rest -> if x < acc + w then g else pick (acc + w) rest
  in
  pick 0 weighted (SM.split rng)

(* ------------------------------------------------------------------ *)
(* Lists.                                                              *)

(* All ways to remove an aligned block of [k] consecutive elements. *)
let block_removals k ts =
  let n = List.length ts in
  let rec go start () =
    if start + k > n then Seq.Nil
    else
      Seq.Cons
        ( List.filteri (fun i _ -> i < start || i >= start + k) ts,
          go (start + k) )
  in
  go 0

(* Shrink a list of element trees: drop blocks (largest first: the whole
   list, then halves, quarters, ..., single elements), then shrink
   elements pointwise, left to right. *)
let rec list_tree (ts : 'a tree list) : 'a list tree =
  let n = List.length ts in
  let removals () =
    let rec blocks k () =
      if k <= 0 then Seq.Nil
      else
        Seq.Cons
          (Seq.map list_tree (block_removals k ts), blocks (if k = 1 then 0 else k / 2))
    in
    Seq.concat (blocks n) ()
  in
  let pointwise () =
    let rec go prefix = function
      | [] -> Seq.empty
      | t :: rest ->
          let here =
            Seq.map
              (fun t' -> list_tree (List.rev_append prefix (t' :: rest)))
              (children t)
          in
          Seq.append here (fun () -> go (t :: prefix) rest ())
    in
    go [] ts ()
  in
  Tree (List.map root ts, fun () -> Seq.append removals pointwise ())

let list_of_size size_g elem_g rng =
  let n = root (size_g (SM.split rng)) in
  let erng = SM.split rng in
  let ts = ref [] in
  for _ = 1 to n do
    ts := elem_g (SM.split erng) :: !ts
  done;
  list_tree (List.rev !ts)

let list ?(max_len = 10) elem_g = list_of_size (int_bound max_len) elem_g

let tuple_list gens rng =
  (* Fixed shape: generate one tree per position, shrink pointwise only. *)
  let ts = List.map (fun g -> g (SM.split rng)) gens in
  let rec fixed ts =
    let pointwise () =
      let rec go prefix = function
        | [] -> Seq.empty
        | t :: rest ->
            let here =
              Seq.map
                (fun t' -> fixed (List.rev_append prefix (t' :: rest)))
                (children t)
            in
            Seq.append here (fun () -> go (t :: prefix) rest ())
      in
      go [] ts ()
    in
    Tree (List.map root ts, pointwise)
  in
  fixed ts

let sized ?(limit = 30) f = bind (int_bound limit) f

let rec filter_tree pred (Tree (x, cs)) =
  Tree
    ( x,
      Seq.filter_map
        (fun t -> if pred (root t) then Some (filter_tree pred t) else None)
        cs )

let such_that ?(max_tries = 100) pred g rng =
  let rec attempt tries =
    if tries = 0 then raise Discard
    else
      let t = g (SM.split rng) in
      if pred (root t) then filter_tree pred t else attempt (tries - 1)
  in
  attempt max_tries
