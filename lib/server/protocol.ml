module Json = Bbc.Json

type error_code =
  | Bad_request
  | Unknown_method
  | Unknown_session
  | Bad_params
  | Timeout
  | Overloaded
  | Session_limit
  | Shutting_down
  | Internal

let code_string = function
  | Bad_request -> "bad_request"
  | Unknown_method -> "unknown_method"
  | Unknown_session -> "unknown_session"
  | Bad_params -> "bad_params"
  | Timeout -> "timeout"
  | Overloaded -> "overloaded"
  | Session_limit -> "session_limit"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

type request = {
  id : Json.t;
  meth : string;
  params : Json.t;
  deadline_ms : int option;
}

let methods =
  [
    "apply_move";
    "best_response";
    "close_session";
    "config";
    "cost";
    "gen";
    "instance";
    "load_instance";
    "ping";
    "shutdown";
    "stable";
    "stats";
    "step_dynamics";
  ]

let parse_request line =
  match Json.of_string line with
  | Error e -> Error (Json.Null, Bad_request, "malformed JSON: " ^ e)
  | Ok v -> (
      let id = Option.value ~default:Json.Null (Json.member "id" v) in
      match v with
      | Json.Obj _ -> (
          match Json.member "method" v with
          | Some (Json.Str meth) -> (
              if not (List.mem meth methods) then
                Error (id, Unknown_method, Printf.sprintf "unknown method %S" meth)
              else
                let params =
                  Option.value ~default:(Json.Obj []) (Json.member "params" v)
                in
                match params with
                | Json.Obj _ -> (
                    match Json.member "deadline_ms" v with
                    | None -> Ok { id; meth; params; deadline_ms = None }
                    | Some d -> (
                        match Json.to_int d with
                        | Some ms when ms >= 0 ->
                            Ok { id; meth; params; deadline_ms = Some ms }
                        | _ ->
                            Error
                              ( id,
                                Bad_request,
                                "deadline_ms must be a non-negative integer" )))
                | _ -> Error (id, Bad_request, "params must be an object"))
          | Some _ -> Error (id, Bad_request, "method must be a string")
          | None -> Error (id, Bad_request, "missing method"))
      | _ -> Error (id, Bad_request, "request must be a JSON object"))

let ok ~id result = Json.to_string (Json.Obj [ ("id", id); ("ok", result) ])

let error ~id code message =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ( "error",
           Json.Obj
             [ ("code", Json.Str (code_string code)); ("message", Json.Str message) ]
         );
       ])
