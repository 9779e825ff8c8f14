(** A small DPLL SAT solver: unit propagation, pure-literal elimination,
    most-occurring-variable branching.  Complete (always terminates with
    the right answer); adequate for the reduction experiments, whose
    formulas have at most a few dozen variables. *)

type outcome =
  | Sat of bool array
      (** Witness assignment, indexed by variable (index 0 unused). *)
  | Unsat

val solve : Cnf.t -> outcome
