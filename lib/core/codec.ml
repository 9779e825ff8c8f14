let instance_to_string instance =
  let n = Instance.n instance in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "bbc-instance v1\n";
  Buffer.add_string buf (Printf.sprintf "n %d\n" n);
  Buffer.add_string buf (Printf.sprintf "penalty %d\n" (Instance.penalty instance));
  (match Instance.uniform_k instance with
  | Some k -> Buffer.add_string buf (Printf.sprintf "uniform %d\n" k)
  | None ->
      Buffer.add_string buf "budgets";
      for u = 0 to n - 1 do
        Buffer.add_string buf (Printf.sprintf " %d" (Instance.budget instance u))
      done;
      Buffer.add_char buf '\n';
      let table name f =
        Buffer.add_string buf (name ^ "\n");
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if v > 0 then Buffer.add_char buf ' ';
            Buffer.add_string buf (string_of_int (if u = v then 0 else f u v))
          done;
          Buffer.add_char buf '\n'
        done
      in
      table "weights" (Instance.weight instance);
      table "costs" (Instance.cost instance);
      (* Diagonal length entries are never read; emit 1 to satisfy the
         parser's validation. *)
      Buffer.add_string buf "lengths\n";
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if v > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf
            (string_of_int (if u = v then 1 else Instance.length instance u v))
        done;
        Buffer.add_char buf '\n'
      done);
  Buffer.contents buf

type parse_state = {
  mutable lines : string list;
  mutable line_no : int;
}

let next_line st =
  let rec go () =
    match st.lines with
    | [] -> None
    | l :: rest ->
        st.lines <- rest;
        st.line_no <- st.line_no + 1;
        let l = match String.index_opt l '#' with
          | Some i -> String.sub l 0 i
          | None -> l
        in
        let l = String.trim l in
        if l = "" then go () else Some l
  in
  go ()

let fail st msg = Error (Printf.sprintf "line %d: %s" st.line_no msg)

let parse_ints line =
  String.split_on_char ' ' line
  |> List.filter (fun s -> s <> "")
  |> List.map int_of_string_opt
  |> fun l ->
  if List.exists Option.is_none l then None else Some (List.map Option.get l)

let parse_row st n =
  match next_line st with
  | None -> fail st "unexpected end of input"
  | Some line -> (
      match parse_ints line with
      | Some row when List.length row = n -> Ok (Array.of_list row)
      | Some _ -> fail st "wrong row width"
      | None -> fail st "malformed integer row")

let parse_table st n =
  let rows = Array.make n [||] in
  let rec go u =
    if u = n then Ok rows
    else
      match parse_row st n with
      | Error e -> Error e
      | Ok row ->
          rows.(u) <- row;
          go (u + 1)
  in
  go 0

let instance_of_string text =
  let st = { lines = String.split_on_char '\n' text; line_no = 0 } in
  match next_line st with
  | Some "bbc-instance v1" -> (
      let field name =
        match next_line st with
        | Some line -> (
            match String.split_on_char ' ' line |> List.filter (( <> ) "") with
            | [ key; value ] when key = name -> (
                match int_of_string_opt value with
                | Some v -> Ok v
                | None -> fail st (Printf.sprintf "bad %s value" name))
            | _ -> fail st (Printf.sprintf "expected '%s <int>'" name))
        | None -> fail st "unexpected end of input"
      in
      match field "n" with
      | Error e -> Error e
      | Ok n -> (
          match field "penalty" with
          | Error e -> Error e
          | Ok penalty -> (
              match next_line st with
              | Some line -> (
                  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
                  | [ "uniform"; k ] -> (
                      match int_of_string_opt k with
                      | Some k -> (
                          try Ok (Instance.with_penalty (Instance.uniform ~n ~k) penalty)
                          with Invalid_argument m -> fail st m)
                      | None -> fail st "bad uniform budget")
                  | "budgets" :: rest -> (
                      match List.map int_of_string_opt rest with
                      | budgets
                        when List.length budgets = n
                             && List.for_all Option.is_some budgets -> (
                          let budget = Array.of_list (List.map Option.get budgets) in
                          let expect_header name =
                            match next_line st with
                            | Some l when l = name -> Ok ()
                            | Some l -> fail st (Printf.sprintf "expected %S, got %S" name l)
                            | None -> fail st "unexpected end of input"
                          in
                          let ( let* ) = Result.bind in
                          let* () = expect_header "weights" in
                          let* weight = parse_table st n in
                          let* () = expect_header "costs" in
                          let* cost = parse_table st n in
                          let* () = expect_header "lengths" in
                          let* length = parse_table st n in
                          try
                            Ok
                              (Instance.general ~penalty ~weight ~cost ~length
                                 ~budget ())
                          with Invalid_argument m -> fail st m)
                      | _ -> fail st "bad budgets line")
                  | _ -> fail st "expected 'uniform k' or 'budgets ...'")
              | None -> fail st "unexpected end of input")))
  | Some other -> Error (Printf.sprintf "bad header %S" other)
  | None -> Error "empty input"

let config_to_string config =
  let n = Config.n config in
  let buf = Buffer.create 128 in
  Buffer.add_string buf "bbc-config v1\n";
  Buffer.add_string buf (Printf.sprintf "n %d\n" n);
  for u = 0 to n - 1 do
    match Config.targets config u with
    | [] -> ()
    | targets ->
        Buffer.add_string buf
          (Printf.sprintf "%d: %s\n" u
             (String.concat " " (List.map string_of_int targets)))
  done;
  Buffer.contents buf

(* Omitted strategy lines make a text configuration's size independent
   of its length, so [n] itself is capped before anything is allocated:
   a short untrusted input must not request a gigabyte-sized profile. *)
let max_text_config_n = 1 lsl 20

let config_of_string text =
  let st = { lines = String.split_on_char '\n' text; line_no = 0 } in
  match next_line st with
  | Some "bbc-config v1" -> (
      match next_line st with
      | Some line -> (
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [ "n"; v ] -> (
              match int_of_string_opt v with
              | Some n when n < 0 || n > max_text_config_n ->
                  fail st (Printf.sprintf "n must be in [0, %d]" max_text_config_n)
              | Some n -> (
                  let strategies = Array.make n [] in
                  let rec go () =
                    match next_line st with
                    | None -> (
                        try Ok (Config.of_lists n strategies)
                        with Invalid_argument m -> fail st m)
                    | Some line -> (
                        match String.index_opt line ':' with
                        | None -> fail st "expected 'node: targets'"
                        | Some i -> (
                            let node = String.trim (String.sub line 0 i) in
                            let rest =
                              String.sub line (i + 1) (String.length line - i - 1)
                            in
                            match (int_of_string_opt node, parse_ints rest) with
                            | Some u, Some targets when u >= 0 && u < n ->
                                strategies.(u) <- targets;
                                go ()
                            | _ -> fail st "malformed strategy line"))
                  in
                  go ())
              | None -> fail st "bad n")
          | _ -> fail st "expected 'n <int>'")
      | None -> fail st "unexpected end of input")
  | Some other -> Error (Printf.sprintf "bad header %S" other)
  | None -> Error "empty input"

(* ------------------------------------------------------------------ *)
(* JSON encoding (shared with the bbc serve wire protocol).            *)

let table_to_json n f =
  Json.List
    (List.init n (fun u ->
         Json.List (List.init n (fun v -> Json.Int (if u = v then 0 else f u v)))))

let instance_to_json instance =
  let n = Instance.n instance in
  let header =
    [
      ("type", Json.Str "bbc-instance");
      ("version", Json.Int 1);
      ("n", Json.Int n);
      ("penalty", Json.Int (Instance.penalty instance));
    ]
  in
  match Instance.uniform_k instance with
  | Some k -> Json.Obj (header @ [ ("uniform_k", Json.Int k) ])
  | None ->
      Json.Obj
        (header
        @ [
            ( "budgets",
              Json.List (List.init n (fun u -> Json.Int (Instance.budget instance u))) );
            ("weights", table_to_json n (Instance.weight instance));
            ("costs", table_to_json n (Instance.cost instance));
            (* Diagonal length entries are never read; emit 1 to satisfy
               the constructor's validation, as the text encoder does. *)
            ( "lengths",
              Json.List
                (List.init n (fun u ->
                     Json.List
                       (List.init n (fun v ->
                            Json.Int (if u = v then 1 else Instance.length instance u v)))))
            );
          ])

let json_field name v =
  match Json.member name v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing field %S" name)

let json_int name v =
  Result.bind (json_field name v) (fun f ->
      match Json.to_int f with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S must be an integer" name))

let json_table name n v =
  Result.bind (json_field name v) (fun f ->
      match Json.to_list f with
      | Some rows when List.length rows = n -> (
          let parsed = List.map Json.int_list rows in
          if List.exists Option.is_none parsed then
            Error (Printf.sprintf "field %S must hold integer rows" name)
          else
            let rows = List.map (fun r -> Array.of_list (Option.get r)) parsed in
            if List.exists (fun r -> Array.length r <> n) rows then
              Error (Printf.sprintf "field %S has a wrong-width row" name)
            else Ok (Array.of_list rows))
      | _ -> Error (Printf.sprintf "field %S must be an %dx%d table" name n n))

let check_type expected v =
  match Json.member "type" v with
  | Some (Json.Str t) when t = expected -> Ok ()
  | Some (Json.Str t) -> Error (Printf.sprintf "expected type %S, got %S" expected t)
  | _ -> Error (Printf.sprintf "missing type field (expected %S)" expected)

let instance_of_json v =
  let ( let* ) = Result.bind in
  let* () = check_type "bbc-instance" v in
  let* n = json_int "n" v in
  let* penalty = json_int "penalty" v in
  match Json.member "uniform_k" v with
  | Some k -> (
      match Json.to_int k with
      | Some k -> (
          try Ok (Instance.with_penalty (Instance.uniform ~n ~k) penalty)
          with Invalid_argument m -> Error m)
      | None -> Error "field \"uniform_k\" must be an integer")
  | None -> (
      let* budgets = json_field "budgets" v in
      let* budget =
        match Json.int_list budgets with
        | Some l when List.length l = n -> Ok (Array.of_list l)
        | _ -> Error (Printf.sprintf "field \"budgets\" must hold %d integers" n)
      in
      let* weight = json_table "weights" n v in
      let* cost = json_table "costs" n v in
      let* length = json_table "lengths" n v in
      try Ok (Instance.general ~penalty ~weight ~cost ~length ~budget ())
      with Invalid_argument m -> Error m)

let config_to_json config =
  let n = Config.n config in
  Json.Obj
    [
      ("type", Json.Str "bbc-config");
      ("version", Json.Int 1);
      ("n", Json.Int n);
      ( "strategies",
        Json.List
          (List.init n (fun u ->
               Json.List (List.map (fun v -> Json.Int v) (Config.targets config u)))) );
    ]

let config_of_json v =
  let ( let* ) = Result.bind in
  let* () = check_type "bbc-config" v in
  let* n = json_int "n" v in
  let* strategies = json_field "strategies" v in
  match Json.to_list strategies with
  | Some rows when List.length rows = n -> (
      let parsed = List.map Json.int_list rows in
      if List.exists Option.is_none parsed then
        Error "field \"strategies\" must hold integer lists"
      else
        try Ok (Config.of_lists n (Array.of_list (List.map Option.get parsed)))
        with Invalid_argument m -> Error m)
  | _ -> Error (Printf.sprintf "field \"strategies\" must hold %d lists" n)

let costs_to_json ~objective ~social costs =
  Json.Obj
    [
      ("type", Json.Str "bbc-costs");
      ("objective", Json.Str (Objective.to_string objective));
      ("costs", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) costs)));
      ("social", Json.Int social);
    ]

let costs_of_json v =
  let ( let* ) = Result.bind in
  let* () = check_type "bbc-costs" v in
  let* objective =
    Option.to_result ~none:"field \"objective\" must be \"sum\" or \"max\""
      (match Json.member "objective" v with Some (Json.Str s) -> Objective.of_string s | _ -> None)
  in
  let* costs = json_field "costs" v in
  let* costs =
    match Json.int_list costs with
    | Some l -> Ok (Array.of_list l)
    | None -> Error "field \"costs\" must hold integers"
  in
  let* social = json_int "social" v in
  Ok (objective, costs, social)

(* ------------------------------------------------------------------ *)
(* Format auto-detection: JSON payloads start with '{'.                *)

let looks_like_json text =
  let rec first i =
    if i >= String.length text then None
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first (i + 1)
      | c -> Some c
  in
  first 0 = Some '{'

let of_any_string ~of_json ~of_text text =
  if looks_like_json text then Result.bind (Json.of_string text) of_json
  else of_text text

let instance_of_any_string text =
  of_any_string ~of_json:instance_of_json ~of_text:instance_of_string text

let config_of_any_string text =
  of_any_string ~of_json:config_of_json ~of_text:config_of_string text

let write_file path contents =
  try
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
    Ok ()
  with Sys_error m -> Error m

let read_file path =
  try Ok (In_channel.with_open_text path In_channel.input_all)
  with Sys_error m -> Error m

let save_instance path instance = write_file path (instance_to_string instance)

let load_instance path = Result.bind (read_file path) instance_of_any_string

let save_config path config = write_file path (config_to_string config)

let load_config path = Result.bind (read_file path) config_of_any_string
