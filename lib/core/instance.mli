(** BBC game specification [<V, w, c, l, b>] plus the disconnection
    penalty [M] (paper, Section 2).

    For nodes [u, v]:
    - [weight t u v] is [u]'s preference for communicating with [v];
    - [cost t u v] is the price [u] pays to establish the link [u -> v];
    - [length t u v] is the length of that link if established;
    - [budget t u] bounds the total cost of [u]'s links;
    - [penalty t] is the distance charged for unreachable targets
      (the paper's [M >> n * max length]).

    Uniform games ([w = c = l = 1], [b = k]) get a dedicated compact
    representation: they are the main object of Sections 4–5 and are
    instantiated at sizes where materializing [n x n] matrices would be
    wasteful. *)

type t

val uniform : n:int -> k:int -> t
(** The [(n, k)]-uniform game.  Requires [n >= 2], [1 <= k <= n - 1],
    and [n * (n - 1) * 4n < 2^62] (so [n <= 2^20]), the social-cost
    bound that {!general} enforces.  Penalty defaults to [4 * n]. *)

val general :
  ?penalty:int ->
  weight:int array array ->
  cost:int array array ->
  length:int array array ->
  budget:int array ->
  unit ->
  t
(** A general (possibly non-uniform) game.  All four tables must be
    [n x n] (resp. length [n]); diagonal entries are ignored.  Weights,
    costs and budgets must be non-negative; lengths positive.  [penalty]
    defaults to [2 * n * max_length + 1], satisfying [M > n * max l].
    Raises [Invalid_argument] when [n * (n - 1) * max_weight * M >= 2^62]:
    a social cost sums [n] node costs of at most
    [(n - 1) * max_weight * M] each, and must fit the library's integer
    folds (DESIGN.md section 18). *)

val of_weights : ?penalty:int -> k:int -> int array array -> t
(** Common non-uniform shape: unit costs and lengths, uniform budget [k],
    explicit preference matrix.  Same checks as {!general}. *)

val n : t -> int

val weight : t -> int -> int -> int

val weight_row : t -> int -> int array option
(** [Some] of node [u]'s preference row for explicit-matrix instances,
    [None] for uniform ones (every weight is 1).  Lets evaluation hot
    loops hoist the representation dispatch out of their per-node
    iteration; treat the row as read-only. *)

val cost : t -> int -> int -> int
val length : t -> int -> int -> int
val budget : t -> int -> int
val penalty : t -> int

val uniform_k : t -> int option
(** [Some k] when the instance was built with {!uniform}. *)

val with_penalty : t -> int -> t
(** Replace the penalty.  Raises [Invalid_argument] unless
    [n * max_length < M] and [n * (n - 1) * max_weight * M < 2^62]. *)

val pp : Format.formatter -> t -> unit
