type outcome = Sat of bool array | Unsat

(* Assignment state during search: 0 = unassigned, 1 = true, -1 = false. *)

let literal_value assignment lit =
  let v = abs lit in
  let s = assignment.(v) in
  if s = 0 then 0 else if (lit > 0 && s = 1) || (lit < 0 && s = -1) then 1 else -1

(* Simplify clauses under the current partial assignment.  Returns [None]
   if some clause is falsified, otherwise the remaining (shortened)
   clauses. *)
let simplify clauses assignment =
  let rec simplify_clause acc = function
    | [] -> Some (List.rev acc)
    | lit :: rest -> (
        match literal_value assignment lit with
        | 1 -> None (* clause satisfied: drop it *)
        | 0 -> simplify_clause (lit :: acc) rest
        | _ -> simplify_clause acc rest)
  in
  let rec go acc = function
    | [] -> Some acc
    | clause :: rest -> (
        match simplify_clause [] clause with
        | None -> go acc rest
        | Some [] -> None
        | Some c -> go (c :: acc) rest)
  in
  go [] clauses

let choose_branch_variable clauses =
  (* Most frequently occurring variable among remaining clauses. *)
  let counts = Hashtbl.create 16 in
  List.iter
    (List.iter (fun lit ->
         let v = abs lit in
         Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))))
    clauses;
  Hashtbl.fold
    (fun v c best ->
      match best with Some (_, c') when c' >= c -> best | _ -> Some (v, c))
    counts None
  |> Option.map fst

let solve f =
  let num_vars = Cnf.num_vars f in
  let assignment = Array.make (num_vars + 1) 0 in
  let rec search clauses =
    match simplify clauses assignment with
    | None -> false
    | Some [] -> true
    | Some clauses -> (
        (* Unit propagation. *)
        match List.find_opt (fun c -> List.length c = 1) clauses with
        | Some [ lit ] ->
            let v = abs lit in
            assignment.(v) <- (if lit > 0 then 1 else -1);
            let ok = search clauses in
            if not ok then assignment.(v) <- 0;
            ok
        | Some _ -> assert false
        | None -> (
            (* Pure-literal elimination. *)
            let polarity = Hashtbl.create 16 in
            List.iter
              (List.iter (fun lit ->
                   let v = abs lit in
                   match Hashtbl.find_opt polarity v with
                   | None -> Hashtbl.replace polarity v (compare lit 0)
                   | Some s -> if s <> compare lit 0 then Hashtbl.replace polarity v 0))
              clauses;
            let pure = Hashtbl.fold (fun v s acc -> if s <> 0 then (v, s) :: acc else acc) polarity [] in
            match pure with
            | (v, s) :: _ ->
                assignment.(v) <- s;
                let ok = search clauses in
                if not ok then assignment.(v) <- 0;
                ok
            | [] -> (
                match choose_branch_variable clauses with
                | None -> true
                | Some v ->
                    let try_value value =
                      assignment.(v) <- value;
                      let ok = search clauses in
                      if not ok then assignment.(v) <- 0;
                      ok
                    in
                    try_value 1 || try_value (-1))))
  in
  if search (Cnf.clauses f) then begin
    let witness = Array.make (num_vars + 1) false in
    for v = 1 to num_vars do
      witness.(v) <- assignment.(v) = 1 (* unassigned vars default to false *)
    done;
    Sat witness
  end
  else Unsat
