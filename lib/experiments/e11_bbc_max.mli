(** E11 — Section 5: the BBC-max variant — the Theorem-7 no-NE search (negative finding), Theorem-8 high-anarchy equilibria, Theorem-9 PoS. *)

val run : ?quick:bool -> Format.formatter -> unit
(** Print the experiment's tables to the formatter.  [quick] (default
    [true]) selects the fast parameter set; [false] runs the larger
    sweeps reported in EXPERIMENTS.md's full-mode numbers, and every
    Theorem-7 search family below as a row. *)

(** {2 Theorem-7 search families}

    Each value is one row of the Theorem-7 table: k = 1 games with
    unit costs and lengths, drawn up front, each checked for a pure NE
    by {!Bbc.Exhaustive.has_equilibrium}.  The integer argument is the
    row's game count; a smaller count gives a prefix of the same row. *)

type search

val complete : Bbc.Objective.t -> first:int -> int -> search
(** The (4,1) games with weights in {0,1,2} whose ordinals lie in
    [[first, first + count)], out of 3{^12} = 531,441.  The 12
    off-diagonal cells, row-major, are the ordinal's base-3 digits, most
    significant first.  Full profile space. *)

val sparse : Bbc_prng.Splitmix.t -> n:int -> int -> search
(** Random games on [n] nodes drawn from the given stream: each weight
    is 0 with probability 0.55, else uniform in 1..3.  Full profile
    space. *)

(** The seeded families pin every single-preference node
    ({!Bbc.Exhaustive.forced_candidates}). *)

val structured2 : int -> search
(** n = 10: two players with 2-4 preferences (weights 1..3), eight
    forced relays with random targets.  Seed 424242. *)

val structured3 : int -> search
(** n = 9: three players with 2-3 preferences (weights 1..2).  Seed
    987654321. *)

val hybrid_small : int -> search
(** n = 7..10, each node forced with probability 0.6, 2 to 4
    multi-preference nodes.  Seed 42. *)

val hybrid_big : int -> search
(** n = 11..16, forced with probability 0.75, 2 or 3 multi-preference
    nodes.  Seed 42. *)

val ring : int -> search
(** n = 8..11, 2-3 players; each forced node prefers its ring successor
    with probability 0.7.  Seed 42. *)

val fig5 : int -> search
(** The first [count] of the 8,820 two-gadget Figure-5 variants
    (n = 16, 4 free nodes). *)

val tally : search list -> (string * int * int * int) list
(** Run every game of every search in one {!Trials.run} and return
    [(label, games, with pure NE, without)] per search. *)
