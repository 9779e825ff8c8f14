let parse text =
  let lines = String.split_on_char '\n' text in
  let tokens =
    List.concat_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = 'c' then []
        else if line.[0] = 'p' then [ "\000" ^ line ]
        else String.split_on_char ' ' line |> List.filter (fun s -> s <> ""))
      lines
  in
  let rec split_header acc = function
    | [] -> Error "Dimacs.parse: missing problem line"
    | tok :: rest when String.length tok > 0 && tok.[0] = '\000' ->
        if acc <> [] then Error "Dimacs.parse: literals before problem line"
        else Ok (String.sub tok 1 (String.length tok - 1), rest)
    | tok :: rest -> split_header (tok :: acc) rest
  in
  match split_header [] tokens with
  | Error e -> Error e
  | Ok (header, body) -> (
      match String.split_on_char ' ' header |> List.filter (fun s -> s <> "") with
      | [ "p"; "cnf"; vars; clauses ] -> (
          match (int_of_string_opt vars, int_of_string_opt clauses) with
          | Some num_vars, Some num_clauses -> (
              let ints =
                List.map
                  (fun tok ->
                    match int_of_string_opt tok with
                    | Some i -> Ok i
                    | None -> Error (Printf.sprintf "Dimacs.parse: bad token %S" tok))
                  body
              in
              match List.find_opt Result.is_error ints with
              | Some (Error e) -> Error e
              | Some (Ok _) -> assert false
              | None ->
                  let ints = List.map Result.get_ok ints in
                  let rec clauses_of acc current = function
                    | [] ->
                        if current = [] then Ok (List.rev acc)
                        else Error "Dimacs.parse: unterminated final clause"
                    | 0 :: rest -> clauses_of (List.rev current :: acc) [] rest
                    | lit :: rest -> clauses_of acc (lit :: current) rest
                  in
                  (match clauses_of [] [] ints with
                  | Error e -> Error e
                  | Ok cls ->
                      if List.length cls <> num_clauses then
                        Error
                          (Printf.sprintf
                             "Dimacs.parse: declared %d clauses, found %d"
                             num_clauses (List.length cls))
                      else
                        (try Ok (Cnf.make ~num_vars cls)
                         with Invalid_argument m -> Error m)))
          | _ -> Error "Dimacs.parse: malformed problem line")
      | _ -> Error "Dimacs.parse: malformed problem line")

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error m -> Error m
