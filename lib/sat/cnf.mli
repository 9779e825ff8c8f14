(** CNF formulas for the Theorem-2 reduction (3SAT -> BBC instance).

    Variables are numbered [1 .. num_vars]; a literal is a non-zero integer
    whose sign gives the polarity (DIMACS convention).  The reduction only
    needs 3SAT, but the type supports arbitrary clause widths so the DPLL
    solver and generators are reusable. *)

type literal = int
(** Non-zero; [v] means variable [v] is true, [-v] that it is false. *)

type clause = literal list

type t = private { num_vars : int; clauses : clause list }

val make : num_vars:int -> clause list -> t
(** Validates that every literal's variable is within range and non-zero,
    and that no clause is empty of variables. *)

val num_vars : t -> int
val clauses : t -> clause list
val num_clauses : t -> int

val var : literal -> int
(** Variable of a literal (absolute value). *)

val eval : t -> bool array -> bool
(** [eval f assignment] with [assignment.(v)] the value of variable [v]
    (index 0 unused).  Raises [Invalid_argument] if the array is shorter
    than [num_vars + 1]. *)

val clause_satisfied : clause -> bool array -> bool

val pp : Format.formatter -> t -> unit
