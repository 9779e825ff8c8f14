(* End-to-end tests of the serving loop (lib/server/front.ml): a forked
   child runs [Front.run] — with real worker processes, or with its
   in-process engine when [workers = 1] — while this process talks to
   it over TCP.  The front is forked rather than run in-process because
   [Front.run] forks workers, and fork is only safe while the process
   owns no domains — a dedicated child keeps that invariant independent
   of what the test runner does.  The drain and fault-injection cases
   run against both kinds of shard.

   Session-to-worker affinity is proven behaviorally: session stores
   are per-worker, so if routing were ever inconsistent a follow-up
   query would land on a worker that never saw the session and come
   back [unknown_session]. *)

module Json = Bbc.Json
module Net = Bbc_server.Net
module Front = Bbc_server.Front
module Engine = Bbc_server.Engine
module Shard = Bbc_server.Shard

(* ---------------------------------------------------------------- *)
(* Front child lifecycle *)

type front = { pid : int; endpoint : Net.endpoint; pids : int list }

let start_front ~workers =
  let l = Net.listen_tcp ~host:"127.0.0.1" ~port:0 () in
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (try
         Front.run
           ~on_ready:(fun h ->
             let line =
               String.concat " "
                 (List.map string_of_int (Front.worker_pids h))
               ^ "\n"
             in
             let b = Bytes.of_string line in
             ignore (Unix.write w b 0 (Bytes.length b));
             Unix.close w)
           ~engine:(Engine.default_config ())
           ~workers [ l ]
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      Unix.close w;
      Net.close_listener l;
      let ic = Unix.in_channel_of_descr r in
      let pids =
        match input_line ic with
        | line ->
            List.filter_map int_of_string_opt (String.split_on_char ' ' line)
        | exception End_of_file ->
            Alcotest.fail "front child died before reporting worker pids"
      in
      close_in ic;
      let expected = if workers = 1 then 0 else workers in
      if List.length pids <> expected then
        Alcotest.failf "expected %d worker pids, got %d" expected
          (List.length pids);
      { pid; endpoint = l.Net.l_endpoint; pids }

(* Wait for [pid] to exit, failing the test on timeout or abnormal
   status; returns the raw status for exit-code checks. *)
let wait_exit ?(timeout_s = 30.0) pid =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.failf "front pid %d did not exit within %.0fs" pid timeout_s
        end;
        Unix.sleepf 0.02;
        loop ()
    | _, status -> status
  in
  loop ()

let kill_front f =
  (try Unix.kill f.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] f.pid) with Unix.Unix_error _ -> ()

(* Run [body] against a fresh front; the front is killed on any
   failure so a broken test can't leak process trees into later
   ones. *)
let with_front ~workers body =
  let f = start_front ~workers in
  match body f with
  | v ->
      kill_front f;
      v
  | exception e ->
      kill_front f;
      raise e

(* ---------------------------------------------------------------- *)
(* Blocking line-protocol client *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect endpoint =
  match Net.connect endpoint with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok fd ->
      (* A hung server must fail the test, not wedge the runner. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      {
        fd;
        ic = Unix.in_channel_of_descr fd;
        oc = Unix.out_channel_of_descr fd;
      }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rpc c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  try input_line c.ic
  with End_of_file | Sys_error _ ->
    Alcotest.failf "no response to %s" line

let req id meth params =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("method", Json.Str meth);
         ("params", Json.Obj params);
       ])

let parse r =
  match Json.of_string r with
  | Ok v -> v
  | Error e -> Alcotest.failf "bad response %S: %s" r e

let ok_payload r =
  match Json.member "ok" (parse r) with
  | Some p -> p
  | None -> Alcotest.failf "expected ok response, got %s" r

let error_code r =
  match Option.bind (Json.member "error" (parse r)) (Json.member "code") with
  | Some (Json.Str c) -> c
  | _ -> Alcotest.failf "expected error response, got %s" r

let gen_session c ?(n = 8) () =
  let p =
    ok_payload
      (rpc c (req "g" "gen" [ ("name", Json.Str "ring"); ("n", Json.Int n) ]))
  in
  match Json.member "session" p with
  | Some (Json.Str sid) -> sid
  | _ -> Alcotest.fail "gen returned no session id"

let cost c sid = rpc c (req ("c-" ^ sid) "cost" [ ("session", Json.Str sid) ])

let stats_int c field =
  let p = ok_payload (rpc c (req "st" "stats" [])) in
  match Option.bind (Json.member field p) Json.to_int with
  | Some i -> i
  | None -> Alcotest.failf "stats missing int field %S" field

(* ---------------------------------------------------------------- *)

(* Two workers, twenty sessions: the front mints s0..s19, which split
   10/10 across the shards (pinned in test_shard), so both workers
   hold live sessions.  Interleaved cost queries across two client
   connections must all answer Ok — any routing inconsistency would
   surface as unknown_session from the shard that never built the
   session. *)
let test_affinity () =
  with_front ~workers:2 (fun f ->
      let c = connect f.endpoint in
      let sids = List.init 20 (fun _ -> gen_session c ()) in
      let shards =
        List.map (fun sid -> Shard.of_session ~workers:2 sid) sids
      in
      Alcotest.(check bool) "both shards populated" true
        (List.mem 0 shards && List.mem 1 shards);
      let c2 = connect f.endpoint in
      for round = 1 to 3 do
        List.iter
          (fun sid ->
            let cl = if round mod 2 = 0 then c2 else c in
            ignore (ok_payload (cost cl sid)))
          sids
      done;
      close_client c;
      close_client c2)

(* SIGKILL one worker mid-service.  Sessions on its shard are lost —
   queries for them must answer with an error (internal if the death
   raced an in-flight request, unknown_session from the respawned
   worker afterwards), the other shard keeps answering, new sessions
   still build, and stats reports the respawn. *)
let test_worker_crash () =
  with_front ~workers:2 (fun f ->
      let c = connect f.endpoint in
      let sids = List.init 20 (fun _ -> gen_session c ()) in
      let by_shard s =
        List.filter (fun sid -> Shard.of_session ~workers:2 sid = s) sids
      in
      let victim_shard = 0 in
      let victim_pid = List.nth f.pids victim_shard in
      Unix.kill victim_pid Sys.sigkill;
      List.iter
        (fun sid ->
          let code = error_code (cost c sid) in
          if code <> "unknown_session" && code <> "internal" then
            Alcotest.failf "dead shard answered %S for %s" code sid)
        (by_shard victim_shard);
      List.iter
        (fun sid -> ignore (ok_payload (cost c sid)))
        (by_shard (1 - victim_shard));
      (* The replacement worker serves its shard again. *)
      let sid = gen_session c () in
      ignore (ok_payload (cost c sid));
      let respawns = stats_int c "respawns" in
      if respawns < 1 then Alcotest.failf "expected respawns >= 1, got %d" respawns;
      close_client c)

let check_clean_exit f =
  match wait_exit f.pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "front exited %d" n
  | Unix.WSIGNALED s -> Alcotest.failf "front killed by signal %d" s
  | Unix.WSTOPPED _ -> Alcotest.fail "front stopped"

(* A served shutdown request drains the workers and exits 0. *)
let test_shutdown_request ~workers () =
  with_front ~workers (fun f ->
      let c = connect f.endpoint in
      let sid = gen_session c () in
      ignore (ok_payload (cost c sid));
      let ack = ok_payload (rpc c (req "q" "shutdown" [])) in
      Alcotest.(check bool) "stopping acked" true
        (Json.member "stopping" ack = Some (Json.Bool true));
      close_client c;
      check_clean_exit f;
      (* Workers were reaped by the front, not left to init. *)
      List.iter
        (fun wpid ->
          match Unix.kill wpid 0 with
          | () -> Alcotest.failf "worker %d still alive after drain" wpid
          | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
        f.pids)

let sigterm_exits_clean f =
  Unix.kill f.pid Sys.sigterm;
  check_clean_exit f

(* SIGTERM triggers the same graceful drain. *)
let test_sigterm ~workers () =
  with_front ~workers (fun f ->
      let c = connect f.endpoint in
      let sid = gen_session c () in
      ignore (ok_payload (cost c sid));
      close_client c;
      sigterm_exits_clean f)

(* ---------------------------------------------------------------- *)
(* Fault injection: after each fault a fresh client is served and
   SIGTERM still drains to exit 0. *)

let still_serves f =
  let c = connect f.endpoint in
  let pong = ok_payload (rpc c (req "p" "ping" [])) in
  Alcotest.(check bool) "fresh client pinged" true
    (Json.member "pong" pong = Some (Json.Bool true));
  close_client c;
  sigterm_exits_clean f

(* Blocking write that tolerates the server closing mid-way. *)
let write_until_closed c s =
  try ignore (Unix.write_substring c.fd s 0 (String.length s))
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* Read until the server closes the connection; the lines read. *)
let read_to_close c =
  let rec go acc =
    match input_line c.ic with
    | line -> go (line :: acc)
    | exception (End_of_file | Sys_error _) -> List.rev acc
  in
  go []

(* One byte past the 8 MiB line bound, with no newline: answered
   bad_request, then the connection is closed. *)
let test_oversized_line ~workers () =
  with_front ~workers (fun f ->
      let c = connect f.endpoint in
      write_until_closed c (String.make ((8 * 1024 * 1024) + 1) 'x');
      (match read_to_close c with
      | [ r ] -> Alcotest.(check string) "code" "bad_request" (error_code r)
      | lines -> Alcotest.failf "expected one reply, got %d" (List.length lines));
      close_client c;
      still_serves f)

(* A client pipelines 50 requests and vanishes without reading: its
   answers land after it is gone. *)
let test_vanishing_client ~workers () =
  with_front ~workers (fun f ->
      let c = connect f.endpoint in
      let sid = gen_session c () in
      let lines =
        List.init 50 (fun i ->
            if i mod 5 = 0 then
              req (string_of_int i) "gen" [ ("name", Json.Str "ring"); ("n", Json.Int 8) ]
            else req (string_of_int i) "cost" [ ("session", Json.Str sid) ])
      in
      write_until_closed c (String.concat "" (List.map (fun l -> l ^ "\n") lines));
      close_client c;
      still_serves f)

(* 20 MiB of malformed lines from a client that never reads: every
   line is answered immediately, so its pending output passes the
   256 MiB bound and it is dropped, while another client is served. *)
let test_flood ~workers () =
  with_front ~workers (fun f ->
      let other = connect f.endpoint in
      let flood = connect f.endpoint in
      write_until_closed flood (String.concat "" (List.init (10 * 1024 * 1024) (fun _ -> "x\n")));
      (* The server dropped it, discarding the answers it had not yet
         written: reading reaches the end well short of one answer per
         line. *)
      let answered = List.length (read_to_close flood) in
      if answered >= 1024 * 1024 then
        Alcotest.failf "flooding client not dropped (%d answers read)" answered;
      close_client flood;
      ignore (ok_payload (rpc other (req "p" "ping" [])));
      close_client other;
      still_serves f)

(* Pipeline [count] requests on one connection without reading. *)
let pipeline c count mk =
  output_string c.oc
    (String.concat "" (List.init count (fun i -> req (string_of_int i) "stable" (mk i) ^ "\n")));
  flush c.oc

let answer_id r =
  match Json.member "id" (parse r) with
  | Some (Json.Str i) -> int_of_string i
  | _ -> Alcotest.failf "answer without a request id: %s" r

(* SIGKILL a worker while a pipelined burst is in flight on both
   shards: every request is still answered, in order — [ok] or the
   crash policy's errors — and the front keeps serving. *)
let test_kill_mid_batch () =
  with_front ~workers:2 (fun f ->
      let c = connect f.endpoint in
      let sids = Array.init 8 (fun _ -> gen_session c ~n:40 ()) in
      pipeline c 200 (fun i -> [ ("session", Json.Str sids.(i mod 8)) ]);
      Unix.kill (List.hd f.pids) Sys.sigkill;
      for i = 0 to 199 do
        let r = input_line c.ic in
        Alcotest.(check int) "in order" i (answer_id r);
        if Json.member "ok" (parse r) = None then
          match error_code r with
          | "internal" | "unknown_session" -> ()
          | code -> Alcotest.failf "request %d answered %S" i code
      done;
      close_client c;
      still_serves f)

(* A second SIGTERM while the first drain runs changes nothing: what
   was admitted is answered [ok], anything read after the drain began
   gets [shutting_down], each request at most once, and the exit is 0. *)
let test_sigterm_during_drain ~workers () =
  with_front ~workers (fun f ->
      let c = connect f.endpoint in
      let sid = gen_session c ~n:40 () in
      pipeline c 100 (fun _ -> [ ("session", Json.Str sid) ]);
      Unix.kill f.pid Sys.sigterm;
      Unix.kill f.pid Sys.sigterm;
      let ids =
        List.map
          (fun r ->
            if Json.member "ok" (parse r) = None && error_code r <> "shutting_down" then
              Alcotest.failf "drain answered %s" r;
            answer_id r)
          (read_to_close c)
      in
      Alcotest.(check int) "each request answered at most once"
        (List.length ids) (List.length (List.sort_uniq compare ids));
      close_client c;
      check_clean_exit f)

(* The cases every shard kind must pass. *)
let per_shard ~workers =
  [
    Alcotest.test_case "graceful drain on shutdown request" `Quick
      (test_shutdown_request ~workers);
    Alcotest.test_case "graceful drain on SIGTERM" `Quick (test_sigterm ~workers);
    Alcotest.test_case "second SIGTERM during drain" `Quick
      (test_sigterm_during_drain ~workers);
    Alcotest.test_case "oversized line: bad_request, closed" `Quick
      (test_oversized_line ~workers);
    Alcotest.test_case "client vanishes with answers pending" `Quick
      (test_vanishing_client ~workers);
    Alcotest.test_case "malformed-line flood: dropped" `Quick (test_flood ~workers);
  ]

let () =
  (* A client the server closed on must not kill the test runner. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "bbc-front"
    [
      ( "front",
        [
          Alcotest.test_case "session affinity across shards" `Quick
            test_affinity;
          Alcotest.test_case "worker crash: isolated errors + respawn" `Quick
            test_worker_crash;
          Alcotest.test_case "worker killed mid-batch: all answered" `Quick
            test_kill_mid_batch;
        ]
        @ per_shard ~workers:2 );
      (* Kept short: Alcotest sizes the label column to the longest
         suite name and cuts test names that overflow 80 columns. *)
      ("inproc", per_shard ~workers:1);
    ]
