(* In-process exercises of the bbc serve stack (Protocol -> Engine ->
   Handlers -> Session), covering the behaviours the wire tests can't
   pin down deterministically: deadline expiry (fake clock), overload
   rejection, drain-on-shutdown, and bit-identity of served answers
   against the direct library. *)

module Json = Bbc.Json
module Engine = Bbc_server.Engine
module Protocol = Bbc_server.Protocol

let mk_engine ?(queue_cap = 256) ?(max_batch = 64) ?(jobs = 1) ?now () =
  let d = Engine.default_config () in
  let now = Option.value now ~default:d.Engine.now in
  Engine.create
    { d with Engine.queue_cap; max_batch; jobs = Some jobs; now }

(* Submit a raw line; [`Queued] and [`Reply] both end up as response
   strings after [run_batch], so tests drive everything through
   [ask]. *)
let ask engine line =
  match Engine.submit engine ~client:0 line with
  | `Reply r -> r
  | `Queued -> (
      match Engine.run_batch engine with
      | [ (_, r) ] -> r
      | rs -> Alcotest.failf "expected one response, got %d" (List.length rs))

let parse r =
  match Json.of_string r with
  | Ok v -> v
  | Error e -> Alcotest.failf "bad response %S: %s" r e

let ok_payload r =
  let v = parse r in
  match Json.member "ok" v with
  | Some p -> p
  | None -> Alcotest.failf "expected ok response, got %s" r

let error_code r =
  let v = parse r in
  match Option.bind (Json.member "error" v) (Json.member "code") with
  | Some (Json.Str c) -> c
  | _ -> Alcotest.failf "expected error response, got %s" r

let field name p =
  match Json.member name p with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S in %s" name (Json.to_string p)

let int_field name p =
  match Json.to_int (field name p) with
  | Some i -> i
  | None -> Alcotest.failf "field %S not an int" name

let req ?deadline_ms id meth params =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Str id); ("method", Json.Str meth); ("params", Json.Obj params) ]
       @ match deadline_ms with Some ms -> [ ("deadline_ms", Json.Int ms) ] | None -> []))

let gen_session engine ?(name = "ring") ?(n = 6) () =
  let p = ok_payload (ask engine (req "g" "gen" [ ("name", Json.Str name); ("n", Json.Int n) ])) in
  match field "session" p with
  | Json.Str sid -> sid
  | _ -> Alcotest.fail "gen returned no session id"

(* ---------------------------------------------------------------- *)

let test_lifecycle () =
  let engine = mk_engine () in
  let sid = gen_session engine ~n:6 () in
  Alcotest.(check string) "first session id" "s1" sid;
  let costs = ok_payload (ask engine (req "c" "cost" [ ("session", Json.Str sid) ])) in
  Alcotest.(check int) "social" 90 (int_field "social" costs);
  (* close, then the session is gone *)
  let closed = ok_payload (ask engine (req "x" "close_session" [ ("session", Json.Str sid) ])) in
  Alcotest.(check bool) "closed" true (field "closed" closed = Json.Bool true);
  Alcotest.(check string) "gone" "unknown_session"
    (error_code (ask engine (req "c2" "cost" [ ("session", Json.Str sid) ])));
  let closed2 = ok_payload (ask engine (req "x2" "close_session" [ ("session", Json.Str sid) ])) in
  Alcotest.(check bool) "idempotent close" true (field "closed" closed2 = Json.Bool false)

let test_malformed () =
  let engine = mk_engine () in
  Alcotest.(check string) "not json" "bad_request" (error_code (ask engine "{"));
  Alcotest.(check string) "no method" "bad_request"
    (error_code (ask engine "{\"id\":\"1\"}"));
  Alcotest.(check string) "unknown method" "unknown_method"
    (error_code (ask engine (req "1" "frobnicate" [])));
  Alcotest.(check string) "bad params kind" "bad_request"
    (error_code (ask engine "{\"id\":\"1\",\"method\":\"ping\",\"params\":[]}"));
  Alcotest.(check string) "negative deadline" "bad_request"
    (error_code
       (ask engine "{\"id\":\"1\",\"method\":\"ping\",\"params\":{},\"deadline_ms\":-1}"));
  let engine = mk_engine () in
  let sid = gen_session engine () in
  Alcotest.(check string) "missing param" "bad_params"
    (error_code (ask engine (req "2" "best_response" [ ("session", Json.Str sid) ])));
  Alcotest.(check string) "node out of range" "bad_params"
    (error_code
       (ask engine (req "3" "cost" [ ("session", Json.Str sid); ("node", Json.Int 99) ])));
  Alcotest.(check string) "unknown construction" "bad_params"
    (error_code (ask engine (req "4" "gen" [ ("name", Json.Str "nope") ])));
  (* a nesting bomb is a structured parse error, not a crash *)
  Alcotest.(check string) "nesting bomb" "bad_request"
    (error_code (ask engine (String.make 100_000 '[')))

(* n = 2, M = 3 and weights 1537228672809129301 put each node cost at
   exactly max_int, so the social cost (their sum) would wrap to -2.
   The instance is rejected before a session exists. *)
let test_social_cost_bound () =
  let engine = mk_engine () in
  let text w =
    Printf.sprintf
      "bbc-instance v1\nn 2\npenalty 3\nbudgets 1 1\nweights\n0 %d\n%d 0\ncosts\n0 1\n1 0\nlengths\n1 1\n1 1\n"
      w w
  in
  let load w = ask engine (req "l" "load_instance" [ ("instance", Json.Str (text w)) ]) in
  Alcotest.(check string) "wrapping social cost rejected" "bad_params"
    (error_code (load 1537228672809129301));
  let p = ok_payload (load (max_int / 6)) in
  let sid = match field "session" p with Json.Str s -> s | _ -> Alcotest.fail "no session" in
  let costs = ok_payload (ask engine (req "c" "cost" [ ("session", Json.Str sid) ])) in
  Alcotest.(check int) "largest admissible social cost" (6 * (max_int / 6))
    (int_field "social" costs)

let test_deadline_expiry () =
  let clock = ref 0 in
  let engine = mk_engine ~now:(fun () -> !clock) () in
  let sid = gen_session engine () in
  (* Queue two requests with deadlines, then let 50 ms pass before the
     scheduler runs: the 10 ms one must expire in the queue, the 100 ms
     one must still be served. *)
  (match
     Engine.submit engine ~client:0
       (req ~deadline_ms:10 "dead" "cost" [ ("session", Json.Str sid) ])
   with
  | `Queued -> ()
  | `Reply r -> Alcotest.failf "unexpected immediate reply %s" r);
  (match
     Engine.submit engine ~client:0
       (req ~deadline_ms:100 "alive" "cost" [ ("session", Json.Str sid) ])
   with
  | `Queued -> ()
  | `Reply r -> Alcotest.failf "unexpected immediate reply %s" r);
  clock := 50 * 1_000_000;
  (match Engine.run_batch engine with
  | [ (_, r1); (_, r2) ] ->
      Alcotest.(check string) "expired" "timeout" (error_code r1);
      Alcotest.(check int) "served" 90 (int_field "social" (ok_payload r2))
  | rs -> Alcotest.failf "expected two responses, got %d" (List.length rs));
  let stats = ok_payload (ask engine (req "s" "stats" [])) in
  Alcotest.(check int) "timeout counted" 1 (int_field "timeouts" stats)

let test_overload () =
  let engine = mk_engine ~queue_cap:2 () in
  let sid = gen_session engine () in
  let q i =
    Engine.submit engine ~client:0
      (req (string_of_int i) "cost" [ ("session", Json.Str sid) ])
  in
  (match (q 1, q 2) with
  | `Queued, `Queued -> ()
  | _ -> Alcotest.fail "first two admissions should queue");
  (match q 3 with
  | `Reply r -> Alcotest.(check string) "backpressure" "overloaded" (error_code r)
  | `Queued -> Alcotest.fail "third admission should be rejected");
  (* the rejection did not cancel queued work *)
  Alcotest.(check int) "queued survive" 2 (List.length (Engine.run_batch engine));
  let stats = ok_payload (ask engine (req "s" "stats" [])) in
  Alcotest.(check int) "overload counted" 1 (int_field "overloaded" stats)

let test_drain_on_shutdown () =
  let engine = mk_engine () in
  let sid = gen_session engine () in
  for i = 1 to 5 do
    match
      Engine.submit engine ~client:i
        (req (Printf.sprintf "q%d" i) "cost" [ ("session", Json.Str sid) ])
    with
    | `Queued -> ()
    | `Reply r -> Alcotest.failf "unexpected immediate reply %s" r
  done;
  Engine.begin_shutdown engine;
  (* post-shutdown admissions are refused... *)
  (match Engine.submit engine ~client:9 (req "late" "ping" []) with
  | `Reply r -> Alcotest.(check string) "refused" "shutting_down" (error_code r)
  | `Queued -> Alcotest.fail "admission after shutdown");
  (* ...but everything admitted before the signal is served, in
     admission order. *)
  let replies = Engine.drain engine in
  Alcotest.(check int) "all drained" 5 (List.length replies);
  Alcotest.(check (list int)) "admission order" [ 1; 2; 3; 4; 5 ]
    (List.map fst replies);
  List.iter
    (fun (_, r) -> Alcotest.(check int) "drained answer" 90 (int_field "social" (ok_payload r)))
    replies;
  Alcotest.(check int) "queue empty" 0 (Engine.pending engine)

(* The shutdown endpoint itself: executed, acknowledged, and visible to
   the transport via [shutdown_requested]. *)
let test_shutdown_request () =
  let engine = mk_engine () in
  Alcotest.(check bool) "not yet" false (Engine.shutdown_requested engine);
  let p = ok_payload (ask engine (req "sd" "shutdown" [])) in
  Alcotest.(check bool) "acknowledged" true (field "stopping" p = Json.Bool true);
  Alcotest.(check bool) "flagged" true (Engine.shutdown_requested engine)

(* Served answers must be bit-identical to the direct library: same
   costs, same stability verdict, same best response. *)
let test_bit_identity () =
  let engine = mk_engine () in
  let name = "random" and n = 10 in
  let sid = gen_session engine ~name ~n () in
  let instance, config =
    match Bbc.Catalog.build name { Bbc.Catalog.default_params with n } with
    | Ok ic -> ic
    | Error e -> Alcotest.fail e
  in
  let direct = Bbc.Eval.all_costs instance config in
  let served = ok_payload (ask engine (req "c" "cost" [ ("session", Json.Str sid) ])) in
  (match Json.int_list (field "costs" served) with
  | Some costs ->
      Alcotest.(check (list int)) "per-node costs" (Array.to_list direct) costs
  | None -> Alcotest.fail "costs not an int list");
  Alcotest.(check int) "social cost"
    (Bbc.Eval.social_cost instance config)
    (int_field "social" served);
  let stable = ok_payload (ask engine (req "st" "stable" [ ("session", Json.Str sid) ])) in
  Alcotest.(check bool) "stability verdict"
    (Bbc.Stability.is_stable instance config)
    (field "stable" stable = Json.Bool true);
  for u = 0 to n - 1 do
    let r = Bbc.Best_response.exact instance config u in
    let served =
      ok_payload
        (ask engine (req "br" "best_response" [ ("session", Json.Str sid); ("node", Json.Int u) ]))
    in
    Alcotest.(check int) "br cost" r.cost (int_field "cost" served);
    match Json.int_list (field "strategy" served) with
    | Some s -> Alcotest.(check (list int)) "br strategy" r.strategy s
    | None -> Alcotest.fail "strategy not an int list"
  done

(* apply_move prices the mover with one Eval.node_cost on the new
   profile and leaves the session's cost memo empty. *)
let test_apply_move_cost () =
  let engine = mk_engine () in
  let sid = gen_session engine ~name:"random" ~n:10 () in
  let s = Option.get (Bbc_server.Session.find (Engine.sessions engine) sid) in
  ignore (Bbc_server.Session.all_costs s);
  let u = 3 and targets = [ 0; 7 ] in
  let config' = Bbc.Config.with_strategy s.config u targets in
  let p =
    ok_payload
      (ask engine
         (req "m" "apply_move"
            [
              ("session", Json.Str sid);
              ("node", Json.Int u);
              ("targets", Json.List (List.map (fun v -> Json.Int v) targets));
            ]))
  in
  Alcotest.(check bool) "session holds the new profile" true (Bbc.Config.equal config' s.config);
  Alcotest.(check int) "cost" (Bbc.Eval.node_cost s.instance config' u) (int_field "cost" p);
  Alcotest.(check bool) "memo left empty" true (s.costs = [])

(* step_dynamics is Dynamics.run under Round_robin/Exact_best_response,
   one activation at a time: walking a session to convergence must
   reproduce the library walk's final configuration and deviation
   count. *)
let test_step_dynamics_differential () =
  let name = "random" and n = 9 in
  let instance, config0 =
    match Bbc.Catalog.build name { Bbc.Catalog.default_params with n } with
    | Ok ic -> ic
    | Error e -> Alcotest.fail e
  in
  let outcome =
    Bbc.Dynamics.run ~scheduler:Bbc.Dynamics.Round_robin ~max_rounds:500 instance config0
  in
  let reference, stats =
    match outcome with
    | Bbc.Dynamics.Converged (c, s) -> (c, s)
    | _ -> Alcotest.fail "reference walk did not converge"
  in
  let engine = mk_engine () in
  let sid = gen_session engine ~name ~n () in
  let rec walk guard =
    if guard = 0 then Alcotest.fail "server walk did not converge";
    let p =
      ok_payload
        (ask engine (req "w" "step_dynamics" [ ("session", Json.Str sid); ("steps", Json.Int 1) ]))
    in
    if field "converged" p <> Json.Bool true then walk (guard - 1)
    else int_field "deviations" p
  in
  let deviations = walk 100_000 in
  Alcotest.(check int) "deviation count" stats.Bbc.Dynamics.deviations deviations;
  let served_config =
    match
      Bbc.Codec.config_of_json (ok_payload (ask engine (req "cf" "config" [ ("session", Json.Str sid) ])))
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "final configuration" true (Bbc.Config.equal reference served_config)

(* Interleaved sessions exercise the batch scheduler's grouping: answers
   come back in admission order and match the single-session runs. *)
let test_batch_interleaving () =
  let engine = mk_engine ~jobs:4 () in
  let a = gen_session engine ~name:"ring" ~n:6 () in
  let b = gen_session engine ~name:"random" ~n:8 () in
  let expected_a = "90" and ids = ref [] in
  for i = 0 to 9 do
    let sid = if i mod 2 = 0 then a else b in
    ids := Printf.sprintf "i%d" i :: !ids;
    match
      Engine.submit engine ~client:i (req (Printf.sprintf "i%d" i) "cost" [ ("session", Json.Str sid) ])
    with
    | `Queued -> ()
    | `Reply r -> Alcotest.failf "unexpected immediate reply %s" r
  done;
  let replies = Engine.drain engine in
  Alcotest.(check (list int)) "admission order" (List.init 10 Fun.id) (List.map fst replies);
  List.iteri
    (fun i (_, r) ->
      let p = ok_payload r in
      if i mod 2 = 0 then
        Alcotest.(check string) "ring social" expected_a
          (Json.to_string (field "social" p)))
    replies

(* gen and close_session execute as independent singleton groups on the
   domain pool: a batch full of them runs store mutations concurrently,
   which must neither corrupt the table nor hand out duplicate ids. *)
let test_concurrent_session_churn () =
  let engine = mk_engine ~jobs:4 () in
  let n_req = 32 in
  for i = 0 to n_req - 1 do
    match
      Engine.submit engine ~client:i
        (req (Printf.sprintf "g%d" i) "gen" [ ("name", Json.Str "ring"); ("n", Json.Int 5) ])
    with
    | `Queued -> ()
    | `Reply r -> Alcotest.failf "unexpected immediate reply %s" r
  done;
  let replies = Engine.drain engine in
  Alcotest.(check int) "all served" n_req (List.length replies);
  let sids =
    List.map
      (fun (_, r) ->
        match field "session" (ok_payload r) with
        | Json.Str s -> s
        | _ -> Alcotest.fail "gen returned no session id")
      replies
  in
  Alcotest.(check int) "unique session ids" n_req
    (List.length (List.sort_uniq compare sids));
  Alcotest.(check int) "store count" n_req
    (Bbc_server.Session.count (Engine.sessions engine));
  (* every minted session is really in the store, then concurrent
     teardown drains it completely *)
  List.iteri
    (fun i sid ->
      match
        Engine.submit engine ~client:i
          (req (Printf.sprintf "x%d" i) "close_session" [ ("session", Json.Str sid) ])
      with
      | `Queued -> ()
      | `Reply r -> Alcotest.failf "unexpected immediate reply %s" r)
    sids;
  List.iter
    (fun (_, r) ->
      Alcotest.(check bool) "closed" true
        (field "closed" (ok_payload r) = Json.Bool true))
    (Engine.drain engine);
  Alcotest.(check int) "store empty" 0 (Bbc_server.Session.count (Engine.sessions engine))

(* At capacity the store evicts sessions idle past the TTL instead of
   refusing forever; warm sessions survive the eviction. *)
let test_session_expiry () =
  let clock = ref 0 in
  let d = Engine.default_config () in
  let engine =
    Engine.create
      {
        d with
        Engine.jobs = Some 1;
        session_cap = 2;
        session_ttl_ms = 1_000;
        now = (fun () -> !clock);
      }
  in
  let s1 = gen_session engine () in
  let s2 = gen_session engine () in
  Alcotest.(check string) "full and nothing idle" "session_limit"
    (error_code (ask engine (req "g3" "gen" [ ("name", Json.Str "ring"); ("n", Json.Int 5) ])));
  (* keep s1 warm; s2 idles past the 1 s TTL *)
  clock := 900 * 1_000_000;
  ignore (ok_payload (ask engine (req "c1" "cost" [ ("session", Json.Str s1) ])));
  clock := 1_500 * 1_000_000;
  let p =
    ok_payload (ask engine (req "g4" "gen" [ ("name", Json.Str "ring"); ("n", Json.Int 5) ]))
  in
  Alcotest.(check bool) "eviction made room" true (field "session" p <> Json.Null);
  Alcotest.(check int) "still two live" 2 (Bbc_server.Session.count (Engine.sessions engine));
  ignore (ok_payload (ask engine (req "c2" "cost" [ ("session", Json.Str s1) ])));
  Alcotest.(check string) "idle session evicted" "unknown_session"
    (error_code (ask engine (req "c3" "cost" [ ("session", Json.Str s2) ])))

let suite =
  [
    Alcotest.test_case "session lifecycle" `Quick test_lifecycle;
    Alcotest.test_case "malformed requests" `Quick test_malformed;
    Alcotest.test_case "social cost bound" `Quick test_social_cost_bound;
    Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
    Alcotest.test_case "overload rejection" `Quick test_overload;
    Alcotest.test_case "drain on shutdown" `Quick test_drain_on_shutdown;
    Alcotest.test_case "shutdown request" `Quick test_shutdown_request;
    Alcotest.test_case "bit identity vs library" `Quick test_bit_identity;
    Alcotest.test_case "step_dynamics differential" `Quick test_step_dynamics_differential;
    Alcotest.test_case "apply_move prices one node" `Quick test_apply_move_cost;
    Alcotest.test_case "batch interleaving" `Quick test_batch_interleaving;
    Alcotest.test_case "concurrent session churn" `Quick test_concurrent_session_churn;
    Alcotest.test_case "idle session expiry" `Quick test_session_expiry;
  ]
