(** Plain-text table rendering for the experiment harness.

    Every experiment prints its results as an aligned table with a title
    and a "paper says" header line, so `bbc experiment` output can be
    diffed against EXPERIMENTS.md. *)

type t

val create : title:string -> claim:string -> columns:string list -> t
(** [claim] is the paper's statement being reproduced (one line). *)

val add_row : t -> string list -> unit
(** Must match the column count. *)

val add_rows : t -> string list list -> unit

val render : Format.formatter -> t -> unit

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_bool : bool -> string
(** Renders as [yes]/[no]. *)

val section : Format.formatter -> string -> unit
(** Prints an experiment banner. *)

val note : Format.formatter -> string -> unit
