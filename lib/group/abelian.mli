(** Finite abelian groups as products of cyclic groups
    [Z_{m_1} x ... x Z_{m_d}] (every finite abelian group is isomorphic to
    such a product).  Elements are encoded as integers in
    [0 .. order - 1] via mixed-radix positional encoding, which makes them
    directly usable as graph vertices. *)

type t

type element = int
(** Encoded element: the mixed-radix packing of the coordinate vector. *)

val create : int list -> t
(** [create [m1; ...; md]] is [Z_m1 x ... x Z_md].  Every modulus must be
    at least 1. *)

val cyclic : int -> t
(** [cyclic n] is [Z_n]. *)

val boolean_cube : int -> t
(** [boolean_cube d] is [Z_2^d] (the group of the [d]-dimensional
    hypercube). *)

val order : t -> int

val identity : t -> element

val of_coords : t -> int list -> element
(** Coordinates are reduced modulo the respective factor. *)

val to_coords : t -> element -> int list

val add : t -> element -> element -> element
val neg : t -> element -> element
val sub : t -> element -> element -> element

val elements : t -> element list
(** All elements, in encoding order (identity first). *)
