(** Composable random generators with integrated shrinking.

    A generator produces a {e shrink tree}: the generated value at the
    root, and a lazy sequence of smaller candidate trees below it.
    Shrinking is therefore not a separate value-to-values function bolted
    on after the fact (the qcheck style that cannot see through [bind]):
    every combinator composes the trees, so a counterexample built from
    nested generators shrinks each layer coherently — drop list elements
    first, then shrink the survivors, then the scalars they contain.

    Generators are deterministic functions of a {!Bbc_prng.Splitmix}
    state: the same seed replays the same tree, including every shrink
    candidate (composite generators hand [Splitmix.split] streams to
    their parts, and shrink branches re-run continuations on
    [Splitmix.copy]-protected states).  This is what makes a fuzz failure
    replayable from [--seed] alone.

    Conventions: integers shrink toward the low end of their range
    ([int_range lo hi] toward [lo]) by binary halving; booleans toward
    [false]; lists by removing elements (never by regenerating), then
    pointwise.  [oneof]/[frequency] shrink within the chosen branch. *)

type 'a tree = Tree of 'a * 'a tree Seq.t

val root : 'a tree -> 'a
val children : 'a tree -> 'a tree Seq.t

type 'a t = Bbc_prng.Splitmix.t -> 'a tree
(** A generator: advances the given state arbitrarily and returns the
    value's shrink tree. *)

val generate : seed:int -> 'a t -> 'a tree
(** Run a generator on a fresh state seeded with [seed]. *)

exception Discard
(** Raised by {!such_that} when no acceptable value is found; fuzz
    runners count the case as discarded rather than failed. *)

(** {1 Primitives} *)

val return : 'a -> 'a t
(** Constant value, no shrinks. *)

val int_range : int -> int -> int t
(** [int_range lo hi] — uniform in [\[lo, hi\]], shrinking toward [lo]
    by halving the distance.  Requires [lo <= hi]. *)

val int_bound : int -> int t
(** [int_bound n] = [int_range 0 n]. *)

val bool : bool t
(** Uniform; [true] shrinks to [false]. *)

(** {1 Combinators} *)

val map : ('a -> 'b) -> 'a t -> 'b t

val bind : 'a t -> ('a -> 'b t) -> 'b t
(** Monadic composition with integrated shrinking: shrink candidates
    first re-run the continuation on shrunk ['a]s (on a copy of the
    state the original continuation consumed, so regeneration is
    deterministic), then shrink the ['b] itself. *)

val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
(** [bind]. *)

val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
(** [map], flipped. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val oneof : 'a t list -> 'a t
(** Uniform choice among generators; shrinks within the chosen one. *)

val oneofl : 'a list -> 'a t
(** Uniform choice among constants; shrinks toward earlier elements. *)

val frequency : (int * 'a t) list -> 'a t
(** Weighted choice (weights must be positive). *)

val list_of_size : int t -> 'a t -> 'a list t
(** Generate a length, then that many elements.  Shrinks by {e removing}
    elements (whole list, halves, single drops) and then pointwise — the
    length generator's own shrinks are deliberately not replayed, so
    shrinking never regenerates fresh elements. *)

val list : ?max_len:int -> 'a t -> 'a list t
(** [list_of_size (int_bound max_len)] ([max_len] defaults to 10). *)

val tuple_list : 'a t list -> 'a list t
(** Fixed-shape list (one generator per position): shrinks pointwise
    only, never by removal.  The building block for the n x n instance
    tables, whose shape must survive shrinking. *)

val sized : ?limit:int -> (int -> 'a t) -> 'a t
(** [sized f] draws a size in [\[0, limit\]] (default 30) and runs
    [f size]; the size shrinks like [int_bound], re-running [f]. *)

val such_that : ?max_tries:int -> ('a -> bool) -> 'a t -> 'a t
(** Retry (fresh split states, up to [max_tries], default 100) until the
    predicate holds; raises {!Discard} otherwise.  The shrink tree is
    filtered, so shrinking never leaves the predicate. *)
