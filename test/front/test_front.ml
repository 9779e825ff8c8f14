(* End-to-end tests of the serving loop (lib/server/front.ml): a forked
   child runs [Front.run] with its in-process engine while this process
   talks to it over a socket.  The loop runs in a child rather than in
   this process so the tests can signal it and check its exit status,
   and fork is only safe while the process owns no domains — a
   dedicated child keeps that invariant independent of what the test
   runner does.

   The drain and fault-injection cases run twice: against a daemon on
   one TCP listener ("inproc"), and against one holding a Unix-domain
   socket and a TCP listener at once, as [bbc serve --socket PATH --tcp
   HOST:PORT] does, with clients on the socket ("front"). *)

module Json = Bbc.Json
module Net = Bbc_server.Net
module Front = Bbc_server.Front
module Engine = Bbc_server.Engine

(* ---------------------------------------------------------------- *)
(* Front child lifecycle *)

(* Where the daemon listens: one TCP listener, or a Unix-domain socket
   and a TCP listener. *)
type listen = Tcp | Unix_and_tcp

(* [endpoint] is where the tests' clients connect (the first
   listener); [endpoints] lists every listener. *)
type front = { pid : int; endpoint : Net.endpoint; endpoints : Net.endpoint list }

let socket_seq = ref 0

let socket_path () =
  incr socket_seq;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bbc-front-%d-%d.sock" (Unix.getpid ()) !socket_seq)

let start_front ?(engine = Engine.default_config ()) ~listen () =
  let tcp = Net.listen_tcp ~host:"127.0.0.1" ~port:0 () in
  let ls =
    match listen with
    | Tcp -> [ tcp ]
    | Unix_and_tcp -> [ Net.listen_unix (socket_path ()); tcp ]
  in
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (try
         Front.run
           ~on_ready:(fun () ->
             ignore (Unix.write_substring w "ready\n" 0 6);
             Unix.close w)
           ~engine ls
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      Unix.close w;
      (* Only the fds: [Net.close_listener] would unlink the socket
         path the child serves on. *)
      List.iter (fun (l : Net.listener) -> Unix.close l.l_fd) ls;
      let ic = Unix.in_channel_of_descr r in
      (match input_line ic with
      | _ -> ()
      | exception End_of_file -> Alcotest.fail "front child died before it was ready");
      close_in ic;
      let endpoints = List.map (fun (l : Net.listener) -> l.l_endpoint) ls in
      { pid; endpoint = List.hd endpoints; endpoints }

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

(* A front that drained has unlinked its socket itself; one killed
   here leaves the path behind. *)
let kill_front f =
  (try Unix.kill f.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] f.pid) with Unix.Unix_error _ -> ());
  List.iter
    (function
      | Net.Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
      | Net.Tcp _ -> ())
    f.endpoints

(* Run [body] against a fresh front; the front is killed on any
   failure so a broken test can't leak process trees into later
   ones. *)
let with_front ?engine ~listen body =
  let f = start_front ?engine ~listen () in
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

(* Exit 0, with every Unix-domain socket path unlinked by the drain. *)
let check_clean_exit f =
  match wait_exit f.pid with
  | Unix.WEXITED 0 ->
      List.iter
        (function
          | Net.Unix_path p when Sys.file_exists p ->
              Alcotest.failf "socket %s left behind after drain" p
          | _ -> ())
        f.endpoints
  | Unix.WEXITED n -> Alcotest.failf "front exited %d" n
  | Unix.WSIGNALED s -> Alcotest.failf "front killed by signal %d" s
  | Unix.WSTOPPED _ -> Alcotest.fail "front stopped"

(* A served shutdown request drains the engine and exits 0. *)
let test_shutdown_request ~listen () =
  with_front ~listen (fun f ->
      let c = connect f.endpoint in
      let sid = gen_session c () in
      ignore (ok_payload (cost c sid));
      let ack = ok_payload (rpc c (req "q" "shutdown" [])) in
      Alcotest.(check bool) "stopping acked" true
        (Json.member "stopping" ack = Some (Json.Bool true));
      close_client c;
      check_clean_exit f)

let sigterm_exits_clean f =
  Unix.kill f.pid Sys.sigterm;
  check_clean_exit f

(* SIGTERM triggers the same graceful drain. *)
let test_sigterm ~listen () =
  with_front ~listen (fun f ->
      let c = connect f.endpoint in
      let sid = gen_session c () in
      ignore (ok_payload (cost c sid));
      close_client c;
      sigterm_exits_clean f)

(* ---------------------------------------------------------------- *)
(* Fault injection: after each fault a fresh client is served and
   SIGTERM still drains to exit 0. *)

let still_serves f =
  List.iter
    (fun ep ->
      let c = connect ep in
      let pong = ok_payload (rpc c (req "p" "ping" [])) in
      Alcotest.(check bool) "fresh client pinged" true
        (Json.member "pong" pong = Some (Json.Bool true));
      close_client c)
    f.endpoints;
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
let test_oversized_line ~listen () =
  with_front ~listen (fun f ->
      let c = connect f.endpoint in
      write_until_closed c (String.make ((8 * 1024 * 1024) + 1) 'x');
      (match read_to_close c with
      | [ r ] -> Alcotest.(check string) "code" "bad_request" (error_code r)
      | lines -> Alcotest.failf "expected one reply, got %d" (List.length lines));
      close_client c;
      still_serves f)

(* A client pipelines 50 requests and vanishes without reading: its
   answers land after it is gone. *)
let test_vanishing_client ~listen () =
  with_front ~listen (fun f ->
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
let test_flood ~listen () =
  with_front ~listen (fun f ->
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

(* A second SIGTERM while the first drain runs changes nothing: what
   was admitted is answered [ok], anything read after the drain began
   gets [shutting_down], each request at most once, and the exit is 0. *)
let test_sigterm_during_drain ~listen () =
  with_front ~listen (fun f ->
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

(* Two connections each pipeline 200 requests over 8 sessions built on
   a third, every tenth line a request with no method.  On each
   connection the queued answers come back in admission order, and each
   malformed line is answered [bad_request] at once: its answer is never
   behind one to a line admitted after it.  The queue bound is raised so
   that no request is refused as overloaded. *)
let test_pipelined_order () =
  let engine = { (Engine.default_config ()) with queue_cap = 1024 } in
  with_front ~engine ~listen:Tcp (fun f ->
      let setup = connect f.endpoint in
      let sids = Array.init 8 (fun _ -> gen_session setup ~n:24 ()) in
      close_client setup;
      let malformed i = i mod 10 = 3 in
      let line i =
        if malformed i then
          Json.to_string (Json.Obj [ ("id", Json.Str (string_of_int i)); ("params", Json.Obj []) ])
        else req (string_of_int i) "stable" [ ("session", Json.Str sids.(i mod 8)) ]
      in
      let burst = String.concat "" (List.init 200 (fun i -> line i ^ "\n")) in
      let conns = [ connect f.endpoint; connect f.endpoint ] in
      List.iter
        (fun c ->
          output_string c.oc burst;
          flush c.oc)
        conns;
      List.iter
        (fun c ->
          let last = ref (-1) in
          for pos = 0 to 199 do
            let r = input_line c.ic in
            let i = answer_id r in
            if malformed i then begin
              Alcotest.(check string) "malformed line" "bad_request" (error_code r);
              if pos > i then
                Alcotest.failf "bad_request for line %d held back to position %d" i pos
            end
            else begin
              ignore (ok_payload r);
              if i <= !last then Alcotest.failf "answer %d after answer %d" i !last;
              last := i
            end
          done;
          close_client c)
        conns;
      still_serves f)

(* Twenty sessions built on the Unix-domain socket, then queried in
   turn from that connection and from a TCP one: every query answers
   [ok].  The case dates from the sharded tier, where a session lived
   on one worker; the property it pins is that a session is the
   daemon's, not its connection's or listener's, so a store split along
   either line would answer [unknown_session] here. *)
let test_affinity () =
  with_front ~listen:Unix_and_tcp (fun f ->
      let c = connect f.endpoint in
      let sids = List.init 20 (fun _ -> gen_session c ()) in
      let c2 = connect (List.nth f.endpoints 1) in
      for round = 1 to 3 do
        List.iter
          (fun sid ->
            let cl = if round mod 2 = 0 then c2 else c in
            ignore (ok_payload (cost cl sid)))
          sids
      done;
      close_client c;
      close_client c2;
      still_serves f)

(* A second client process pipelines 200 requests over TCP and is
   SIGKILLed while they run, its socket closing with unread answers.
   Every request pipelined alongside it on the Unix-domain socket is
   still answered [ok], in order, and the front keeps serving.  The
   queue bound is raised so that no request is refused as
   overloaded. *)
let test_kill_mid_batch () =
  let engine = { (Engine.default_config ()) with queue_cap = 1024 } in
  with_front ~engine ~listen:Unix_and_tcp (fun f ->
      let c = connect f.endpoint in
      let sids = Array.init 8 (fun _ -> gen_session c ~n:40 ()) in
      let burst =
        String.concat ""
          (List.init 200 (fun i ->
               req (string_of_int i) "stable" [ ("session", Json.Str sids.(i mod 8)) ] ^ "\n"))
      in
      let r, w = Unix.pipe () in
      let victim =
        match Unix.fork () with
        | 0 ->
            Unix.close r;
            (match Net.connect (List.nth f.endpoints 1) with
            | Ok fd ->
                ignore (Unix.write_substring fd burst 0 (String.length burst));
                ignore (Unix.write_substring w "sent\n" 0 5);
                Unix.sleep 60
            | Error _ -> ());
            Unix._exit 1
        | pid -> pid
      in
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      (match input_line ic with
      | _ -> ()
      | exception End_of_file -> Alcotest.fail "victim client died before its burst was sent");
      close_in ic;
      output_string c.oc burst;
      flush c.oc;
      Unix.kill victim Sys.sigkill;
      ignore (Unix.waitpid [] victim);
      for i = 0 to 199 do
        let r = input_line c.ic in
        Alcotest.(check int) "in order" i (answer_id r);
        ignore (ok_payload r)
      done;
      close_client c;
      still_serves f)

(* The drain and fault-injection cases, against a daemon listening as
   [listen] says. *)
let per_listener ~listen =
  [
    Alcotest.test_case "graceful drain on shutdown request" `Quick
      (test_shutdown_request ~listen);
    Alcotest.test_case "graceful drain on SIGTERM" `Quick (test_sigterm ~listen);
    Alcotest.test_case "second SIGTERM during drain" `Quick
      (test_sigterm_during_drain ~listen);
    Alcotest.test_case "oversized line: bad_request, closed" `Quick
      (test_oversized_line ~listen);
    Alcotest.test_case "client vanishes with answers pending" `Quick
      (test_vanishing_client ~listen);
    Alcotest.test_case "malformed-line flood: dropped" `Quick (test_flood ~listen);
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
          Alcotest.test_case "worker killed mid-batch: all answered" `Quick
            test_kill_mid_batch;
        ]
        @ per_listener ~listen:Unix_and_tcp );
      (* Kept short: Alcotest sizes the label column to the longest
         suite name and cuts test names that overflow 80 columns. *)
      ( "inproc",
        per_listener ~listen:Tcp
        @ [
            Alcotest.test_case "pipelined answers in admission order" `Quick
              test_pipelined_order;
          ] );
    ]
