(** Residual flow networks with fractional (float) capacities.

    Substrate of {!Mincost}.  Arcs are stored in
    forward/backward pairs: pushing flow along an arc increases the residual
    capacity of its twin.  Capacities may be [infinity] (used by the
    fractional BBC model for the penalty arcs that guarantee feasibility). *)

type t

val eps : float
(** Numerical tolerance ([1e-9]): residual capacities below [eps] are
    treated as zero. *)

val create : int -> t
(** [create n] is an empty network on nodes [0 .. n-1]. *)

val n : t -> int

val add_arc : t -> src:int -> dst:int -> capacity:float -> cost:float -> int
(** Adds a forward arc (and its zero-capacity reverse twin); returns the
    forward arc's index.  Capacity must be non-negative (may be
    [infinity]); cost must be finite. *)

val src : t -> int -> int
val dst : t -> int -> int
val cost : t -> int -> float
val residual : t -> int -> float

val flow : t -> int -> float
(** Flow currently pushed through a forward arc. *)

val push : t -> int -> float -> unit
(** [push net a amount] sends [amount] along arc [a]: decreases its
    residual, increases its twin's. *)

val out_arcs : t -> int -> int list
(** Indices of arcs (forward and reverse) leaving a node. *)

val reset : t -> unit
(** Zero all flows (restore original capacities). *)
