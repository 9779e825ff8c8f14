type literal = int
type clause = literal list
type t = { num_vars : int; clauses : clause list }

let make ~num_vars cls =
  if num_vars < 0 then invalid_arg "Cnf.make: negative num_vars";
  List.iter
    (fun clause ->
      if clause = [] then invalid_arg "Cnf.make: empty clause";
      List.iter
        (fun lit ->
          let v = abs lit in
          if lit = 0 || v > num_vars then
            invalid_arg (Printf.sprintf "Cnf.make: literal %d out of range" lit))
        clause)
    cls;
  { num_vars; clauses = cls }

let num_vars f = f.num_vars
let clauses f = f.clauses
let num_clauses f = List.length f.clauses

let var lit = abs lit

let literal_satisfied lit assignment =
  if lit > 0 then assignment.(lit) else not assignment.(-lit)

let clause_satisfied clause assignment =
  List.exists (fun lit -> literal_satisfied lit assignment) clause

let eval f assignment =
  if Array.length assignment < f.num_vars + 1 then
    invalid_arg "Cnf.eval: assignment too short";
  List.for_all (fun c -> clause_satisfied c assignment) f.clauses

let pp fmt f =
  let pp_lit fmt lit = if lit > 0 then Format.fprintf fmt "x%d" lit else Format.fprintf fmt "~x%d" (-lit) in
  let pp_clause fmt c =
    Format.fprintf fmt "(%a)" (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " | ") pp_lit) c
  in
  Format.fprintf fmt "@[<hov>%a@]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "@ & ") pp_clause)
    f.clauses
