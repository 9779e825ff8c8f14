type t = { moduli : int array; order : int }
type element = int

let create ms =
  if ms = [] then invalid_arg "Abelian.create: empty factor list";
  List.iter (fun m -> if m < 1 then invalid_arg "Abelian.create: modulus < 1") ms;
  let moduli = Array.of_list ms in
  { moduli; order = Array.fold_left ( * ) 1 moduli }

let cyclic n = create [ n ]

let boolean_cube d =
  if d < 1 then invalid_arg "Abelian.boolean_cube: dimension < 1";
  create (List.init d (fun _ -> 2))

let order g = g.order
let moduli g = Array.to_list g.moduli

let identity _g = 0

let to_coords g x =
  if x < 0 || x >= g.order then invalid_arg "Abelian.to_coords: element out of range";
  let rec go x i acc =
    if i < 0 then acc
    else go (x / g.moduli.(i)) (i - 1) ((x mod g.moduli.(i)) :: acc)
  in
  go x (Array.length g.moduli - 1) []

let of_coords g cs =
  if List.length cs <> Array.length g.moduli then
    invalid_arg "Abelian.of_coords: wrong coordinate count";
  List.fold_left2
    (fun acc c m -> (acc * m) + (((c mod m) + m) mod m))
    0 cs (moduli g)

let add g x y =
  let cx = to_coords g x and cy = to_coords g y in
  of_coords g (List.map2 ( + ) cx cy)

let neg g x = of_coords g (List.map (fun c -> -c) (to_coords g x))

let sub g x y = add g x (neg g y)

let elements g = List.init g.order Fun.id
