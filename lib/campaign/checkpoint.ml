module Json = Bbc.Json

type payload = Done of Bbc.Trial.summary | Failed of string
type entry = { unit_id : int; payload : payload }

let ( let* ) = Result.bind

let entry_to_line e =
  let fields =
    match e.payload with
    | Done s -> [ ("unit", Json.Int e.unit_id); ("result", Bbc.Trial.summary_to_json s) ]
    | Failed msg -> [ ("unit", Json.Int e.unit_id); ("error", Json.Str msg) ]
  in
  Json.to_string (Json.Obj fields)

let entry_of_line line =
  let* v = Json.of_string line in
  let* unit_id =
    match Json.member "unit" v with
    | Some u -> (
        match Json.to_int u with
        | Some i -> Ok i
        | None -> Error "checkpoint: \"unit\" must be an integer")
    | None -> Error "checkpoint: missing field \"unit\""
  in
  match (Json.member "result" v, Json.member "error" v) with
  | Some r, None ->
      let* s = Bbc.Trial.summary_of_json r in
      Ok { unit_id; payload = Done s }
  | None, Some (Json.Str msg) -> Ok { unit_id; payload = Failed msg }
  | None, Some _ -> Error "checkpoint: \"error\" must be a string"
  | _ -> Error "checkpoint: entry needs exactly one of \"result\" / \"error\""

let spec_path dir = Filename.concat dir "spec.json"
let report_path dir = Filename.concat dir "report.json"

let rec ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (dir ^ ": exists and is not a directory")
  else
    let* () =
      let parent = Filename.dirname dir in
      if parent = dir then Ok () else ensure_dir parent
    in
    match Unix.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Error (dir ^ ": " ^ Unix.error_message e)

let tmp_prefix = ".tmp-"

let write_atomic ~path contents =
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf "%s%s-%d" tmp_prefix (Filename.basename path)
         (Unix.getpid ()))
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let oc = Unix.out_channel_of_descr fd in
      output_string oc contents;
      flush oc;
      Unix.fsync fd);
  Sys.rename tmp path;
  (* Best-effort directory fsync so the rename itself is durable. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let chunk_name index = Printf.sprintf "chunk-%08d.jsonl" index

let chunk_index name =
  match Scanf.sscanf name "chunk-%8d.jsonl%!" (fun i -> i) with
  | i -> Some i
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let append_chunk ~dir ~index entries =
  let path = Filename.concat dir (chunk_name index) in
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (entry_to_line e);
      Buffer.add_char buf '\n')
    entries;
  write_atomic ~path (Buffer.contents buf);
  path

let load ~dir ~units =
  let names =
    match Sys.readdir dir with
    | names -> Array.to_list names
    | exception Sys_error _ -> []
  in
  let chunks =
    List.filter_map (fun n -> Option.map (fun i -> (i, n)) (chunk_index n)) names
    |> List.sort compare
  in
  let tbl = Hashtbl.create 1024 in
  let next = ref 0 in
  let rec load_chunks = function
    | [] -> Ok ()
    | (index, name) :: rest ->
        let path = Filename.concat dir name in
        let* () =
          match In_channel.with_open_bin path In_channel.input_all with
          | contents ->
              String.split_on_char '\n' contents
              |> List.fold_left
                   (fun acc line ->
                     let* () = acc in
                     if String.trim line = "" then Ok ()
                     else
                       let* e = entry_of_line line in
                       if e.unit_id < 0 || e.unit_id >= units then
                         Error
                           (Printf.sprintf "checkpoint: unit %d out of range [0,%d)"
                              e.unit_id units)
                       else begin
                         if not (Hashtbl.mem tbl e.unit_id) then
                           Hashtbl.replace tbl e.unit_id e.payload;
                         Ok ()
                       end)
                   (Ok ())
              |> Result.map_error (fun m -> path ^ ": " ^ m)
          | exception Sys_error m -> Error m
        in
        next := max !next (index + 1);
        load_chunks rest
  in
  let* () = load_chunks chunks in
  Ok (tbl, !next)
