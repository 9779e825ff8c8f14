module Json = Bbc.Json

type env = {
  sessions : Session.store;
  now : unit -> int;
  stats : unit -> Json.t;
  request_shutdown : unit -> unit;
  assign_ids : bool;
}

let ( let* ) = Result.bind

let fail code msg = Error (code, msg)

(* ---------------------------------------------------------------- *)
(* Parameter accessors                                               *)

let opt_int params name default =
  match Json.member name params with
  | None -> Ok default
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok i
      | None ->
          fail Protocol.Bad_params (Printf.sprintf "param %S must be an integer" name))

let req_int params name =
  match Json.member name params with
  | None -> fail Protocol.Bad_params (Printf.sprintf "missing param %S" name)
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok i
      | None ->
          fail Protocol.Bad_params (Printf.sprintf "param %S must be an integer" name))

let req_str params name =
  match Json.member name params with
  | Some (Json.Str s) -> Ok s
  | Some _ -> fail Protocol.Bad_params (Printf.sprintf "param %S must be a string" name)
  | None -> fail Protocol.Bad_params (Printf.sprintf "missing param %S" name)

let objective params =
  let bad = fail Protocol.Bad_params "param \"objective\" must be \"sum\" or \"max\"" in
  match Json.member "objective" params with
  | None -> Ok Bbc.Objective.Sum
  | Some (Json.Str s) -> Option.fold ~none:bad ~some:Result.ok (Bbc.Objective.of_string s)
  | Some _ -> bad

let session env params =
  let* id = req_str params "session" in
  match Session.find env.sessions id with
  | Some s ->
      s.Session.last_used_ns <- env.now ();
      Ok s
  | None -> fail Protocol.Unknown_session (Printf.sprintf "no session %S" id)

let node_in_range s params =
  let n = Bbc.Instance.n s.Session.instance in
  let* u = req_int params "node" in
  if u >= 0 && u < n then Ok u
  else fail Protocol.Bad_params (Printf.sprintf "node %d out of range [0,%d)" u n)

(* ---------------------------------------------------------------- *)
(* Session construction                                               *)

let session_summary (s : Session.t) =
  Json.Obj
    [
      ("session", Json.Str s.id);
      ("n", Json.Int (Bbc.Instance.n s.instance));
      ("feasible", Json.Bool (Bbc.Config.feasible s.instance s.config));
    ]

let add_session env instance config =
  match Session.add env.sessions ~now_ns:(env.now ()) instance config with
  | Ok s -> Ok (session_summary s)
  | Error msg -> fail Protocol.Session_limit msg

let gen env params =
  let* name = req_str params "name" in
  let d = Bbc.Catalog.default_params in
  let* n = opt_int params "n" d.n in
  let* k = opt_int params "k" d.k in
  let* h = opt_int params "h" d.h in
  let* l = opt_int params "l" d.l in
  let* seed = opt_int params "seed" d.seed in
  match Bbc.Catalog.build name { n; k; h; l; seed } with
  | Ok (instance, config) -> add_session env instance config
  | Error msg -> fail Protocol.Bad_params msg

let load_instance env params =
  let decode what of_json of_any v =
    match v with
    | Json.Str text -> of_any text
    | Json.Obj _ -> of_json v
    | _ -> Error (Printf.sprintf "param %S must be an object or a string" what)
  in
  match Json.member "instance" params with
  | None -> fail Protocol.Bad_params "missing param \"instance\""
  | Some iv -> (
      match
        decode "instance" Bbc.Codec.instance_of_json Bbc.Codec.instance_of_any_string iv
      with
      | Error msg -> fail Protocol.Bad_params ("instance: " ^ msg)
      | Ok instance -> (
          let* config =
            match Json.member "config" params with
            | None -> Ok (Bbc.Config.empty (Bbc.Instance.n instance))
            | Some cv -> (
                match
                  decode "config" Bbc.Codec.config_of_json Bbc.Codec.config_of_any_string
                    cv
                with
                | Error msg -> fail Protocol.Bad_params ("config: " ^ msg)
                | Ok c ->
                    if Bbc.Config.n c <> Bbc.Instance.n instance then
                      fail Protocol.Bad_params
                        "configuration size does not match instance"
                    else Ok c)
          in
          add_session env instance config))

(* ---------------------------------------------------------------- *)
(* Queries                                                            *)

let cost env params =
  let* s = session env params in
  let* objective = objective params in
  match Json.member "node" params with
  | Some _ ->
      let* u = node_in_range s params in
      Ok
        (Json.Obj
           [ ("node", Json.Int u); ("cost", Json.Int (Session.node_cost ~objective s u)) ])
  | None ->
      let costs = Session.all_costs ~objective s in
      let social = Array.fold_left ( + ) 0 costs in
      Ok (Bbc.Codec.costs_to_json ~objective ~social costs)

let best_response env params =
  let* s = session env params in
  let* objective = objective params in
  let* u = node_in_range s params in
  (* The current cost comes from the decision's own rows, as in
     [Dynamics.activate]; the session memo stays for [cost] reads. *)
  let d = Bbc.Best_response.decide ~objective ~search:Exact s.instance s.config u in
  Ok
    (Json.Obj
       [
         ("node", Json.Int u);
         ("strategy", Json.List (List.map (fun v -> Json.Int v) d.best.strategy));
         ("cost", Json.Int d.best.cost);
         ("current", Json.Int d.current);
         ("improving", Json.Bool (d.best.cost < d.current));
       ])

let stable env params =
  let* s = session env params in
  let* objective = objective params in
  if not (Bbc.Config.feasible s.instance s.config) then
    Ok (Json.Obj [ ("stable", Json.Bool false); ("feasible", Json.Bool false) ])
  else
    match Bbc.Stability.find_deviation ~objective s.instance s.config with
    | None -> Ok (Json.Obj [ ("stable", Json.Bool true); ("feasible", Json.Bool true) ])
    | Some d ->
        Ok
          (Json.Obj
             [
               ("stable", Json.Bool false);
               ("feasible", Json.Bool true);
               ( "deviation",
                 Json.Obj
                   [
                     ("node", Json.Int d.node);
                     ("current", Json.Int d.current_cost);
                     ("cost", Json.Int d.better.cost);
                     ( "strategy",
                       Json.List (List.map (fun v -> Json.Int v) d.better.strategy) );
                   ] );
             ])

let apply_move env params =
  let* s = session env params in
  let* u = node_in_range s params in
  let* targets =
    match Json.member "targets" params with
    | Some v -> (
        match Json.int_list v with
        | Some l -> Ok l
        | None -> fail Protocol.Bad_params "param \"targets\" must be an integer list")
    | None -> fail Protocol.Bad_params "missing param \"targets\""
  in
  match Bbc.Config.with_strategy s.config u targets with
  | exception Invalid_argument msg -> fail Protocol.Bad_params msg
  | config' ->
      if not (Bbc.Config.feasible s.instance config') then
        fail Protocol.Bad_params
          (Printf.sprintf "strategy exceeds node %d's budget" u)
      else begin
        Session.set_config s config';
        (* A manual rewire restarts convergence detection for the
           session's round-robin walk. *)
        s.walk_quiet <- 0;
        (* One node's cost: one sweep, not the memo's n. *)
        Ok
          (Json.Obj
             [
               ("applied", Json.Bool true);
               ("cost", Json.Int (Bbc.Eval.node_cost s.instance config' u));
             ])
      end

(* One round-robin best-response activation, mirroring
   [Dynamics.activate] under [Exact_best_response]: the node rewires iff
   the exact optimum strictly beats its current cost, both taken from
   one exact decision (no session memo is filled).  The step stream
   (node order, move decisions, adopted strategies, costs) is
   bit-identical to [Dynamics.run ~scheduler:Round_robin] on the same
   start state — the differential test in test_server.ml checks this. *)
let walk_step ~objective (s : Session.t) =
  let n = Bbc.Instance.n s.instance in
  let node = s.walk_index mod n in
  let { Bbc.Best_response.best; current } =
    Bbc.Best_response.decide ~objective ~search:Exact s.instance s.config node
  in
  let moved = best.cost < current in
  if moved then begin
    Session.set_config s (Bbc.Config.with_strategy s.config node best.strategy);
    s.walk_deviations <- s.walk_deviations + 1;
    s.walk_quiet <- 0
  end
  else s.walk_quiet <- s.walk_quiet + 1;
  s.walk_index <- s.walk_index + 1;
  (node, moved, (if moved then best.cost else current))

let walk_converged (s : Session.t) =
  let n = Bbc.Instance.n s.instance in
  s.walk_index mod n = 0 && s.walk_quiet >= n

let step_dynamics env params =
  let* s = session env params in
  let* objective = objective params in
  let* steps = opt_int params "steps" 1 in
  if steps < 0 || steps > 1_000_000 then
    fail Protocol.Bad_params "param \"steps\" must be in [0, 1000000]"
  else begin
    let want_trace =
      match Json.member "trace" params with Some (Json.Bool b) -> b | _ -> false
    in
    let trace = ref [] in
    let executed = ref 0 in
    while !executed < steps && not (walk_converged s) do
      let node, moved, cost = walk_step ~objective s in
      if want_trace then
        trace :=
          Json.Obj
            [
              ("index", Json.Int (s.walk_index - 1));
              ("round", Json.Int ((s.walk_index - 1) / Bbc.Instance.n s.instance));
              ("node", Json.Int node);
              ("moved", Json.Bool moved);
              ( "strategy",
                Json.List
                  (List.map (fun v -> Json.Int v) (Bbc.Config.targets s.config node)) );
              ("cost", Json.Int cost);
            ]
          :: !trace;
      incr executed
    done;
    let n = Bbc.Instance.n s.instance in
    let base =
      [
        ("steps", Json.Int !executed);
        ("index", Json.Int s.walk_index);
        ("round", Json.Int (s.walk_index / n));
        ("deviations", Json.Int s.walk_deviations);
        ("converged", Json.Bool (walk_converged s));
      ]
    in
    let fields =
      if want_trace then base @ [ ("trace", Json.List (List.rev !trace)) ] else base
    in
    Ok (Json.Obj fields)
  end

let close_session env params =
  let* id = req_str params "session" in
  Ok (Json.Obj [ ("closed", Json.Bool (Session.remove env.sessions id)) ])

(* ---------------------------------------------------------------- *)

let dispatch env (r : Protocol.request) =
  match r.meth with
  | "ping" -> Ok (Json.Obj [ ("pong", Json.Bool true) ])
  | "gen" -> gen env r.params
  | "load_instance" -> load_instance env r.params
  | "instance" ->
      let* s = session env r.params in
      Ok (Bbc.Codec.instance_to_json s.instance)
  | "config" ->
      let* s = session env r.params in
      Ok (Bbc.Codec.config_to_json s.config)
  | "cost" -> cost env r.params
  | "best_response" -> best_response env r.params
  | "stable" -> stable env r.params
  | "apply_move" -> apply_move env r.params
  | "step_dynamics" -> step_dynamics env r.params
  | "close_session" -> close_session env r.params
  | "stats" -> Ok (env.stats ())
  | "shutdown" ->
      env.request_shutdown ();
      Ok (Json.Obj [ ("stopping", Json.Bool true) ])
  | m -> fail Protocol.Unknown_method (Printf.sprintf "unknown method %S" m)

let handle env r =
  try dispatch env r
  with e -> fail Protocol.Internal (Printexc.to_string e)
