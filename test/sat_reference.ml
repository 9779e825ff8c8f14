(* Test oracles over Bbc_sat: the DPLL verdict as a bool, model counting
   by exhaustion over [2^num_vars] (formulas of at most ~20 variables),
   and a DIMACS printer for the parser's roundtrip. *)

module Cnf = Bbc_sat.Cnf

let is_satisfiable f =
  match Bbc_sat.Solver.solve f with Bbc_sat.Solver.Sat _ -> true | Unsat -> false

let count_models f =
  let num_vars = Cnf.num_vars f in
  let assignment = Array.make (num_vars + 1) false in
  let count = ref 0 in
  let rec go v =
    if v > num_vars then begin
      if Cnf.eval f assignment then incr count
    end
    else begin
      assignment.(v) <- false;
      go (v + 1);
      assignment.(v) <- true;
      go (v + 1)
    end
  in
  go 1;
  !count

let print f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" (Cnf.num_vars f) (Cnf.num_clauses f));
  List.iter
    (fun clause ->
      List.iter (fun lit -> Buffer.add_string buf (string_of_int lit ^ " ")) clause;
      Buffer.add_string buf "0\n")
    (Cnf.clauses f);
  Buffer.contents buf
