(** The two node-cost aggregations studied in the paper.

    [Sum] is the standard BBC cost, the preference-weighted sum of
    distances (Section 2); [Max] is the BBC-max cost, the maximum
    preference-weighted distance (Section 5).  A node's utility is the
    negative of its cost; we work with costs throughout and minimize. *)

type t = Sum | Max

val to_string : t -> string
(** ["sum"] or ["max"]: the one spelling of the objective in JSON, the
    CLI and the server protocol. *)

val of_string : string -> t option
(** The inverse of {!to_string}; [None] for any other string. *)

val pp : Format.formatter -> t -> unit
