(** Minimal binary min-heap of [(priority, payload)] pairs with integer
    priorities, used by Dijkstra.  Lazy deletion is the
    caller's concern (push duplicates, skip stale pops). *)

type t

val create : ?capacity:int -> unit -> t

val is_empty : t -> bool

val size : t -> int

val push : t -> int -> int -> unit
(** [push h priority payload]. *)

val min_priority : t -> int
(** The smallest priority in the heap.  Raises [Invalid_argument] if the
    heap is empty. *)

val pop_min : t -> int
(** Remove the pair with the smallest priority ({!min_priority}) and
    return its payload, allocating nothing.  Raises [Invalid_argument]
    if the heap is empty. *)

val clear : t -> unit
