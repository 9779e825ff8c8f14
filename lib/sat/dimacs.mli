(** DIMACS CNF parsing and printing, so the reduction experiments can be
    fed standard benchmark files. *)

val parse : string -> (Cnf.t, string) result
(** Parse DIMACS CNF text.  Accepts comment lines ([c ...]), a problem
    line ([p cnf <vars> <clauses>]), and zero-terminated clauses possibly
    spanning multiple lines.  The declared clause count is checked. *)

val parse_file : string -> (Cnf.t, string) result
