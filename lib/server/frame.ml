type t = Query of int * string | Answer of int * string | Stop

let encode = function
  | Query (token, line) -> Printf.sprintf "Q %d %s" token line
  | Answer (token, line) -> Printf.sprintf "A %d %s" token line
  | Stop -> "S"

let decode_tagged line =
  (* "<tag> <token> <payload>"; the payload may contain spaces. *)
  match String.index_from_opt line 2 ' ' with
  | None -> Error (Printf.sprintf "frame %S lacks a payload" line)
  | Some sp -> (
      match int_of_string_opt (String.sub line 2 (sp - 2)) with
      | None -> Error (Printf.sprintf "frame %S has a malformed token" line)
      | Some token ->
          Ok (token, String.sub line (sp + 1) (String.length line - sp - 1)))

let decode line =
  if line = "S" then Ok Stop
  else if String.length line >= 4 && line.[1] = ' ' then
    match line.[0] with
    | 'Q' -> Result.map (fun (t, p) -> Query (t, p)) (decode_tagged line)
    | 'A' -> Result.map (fun (t, p) -> Answer (t, p)) (decode_tagged line)
    | c -> Error (Printf.sprintf "unknown frame tag %C" c)
  else Error (Printf.sprintf "malformed frame %S" line)
