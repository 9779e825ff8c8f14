module Json = Bbc.Json

(* Per-connection buffer bounds: the engine's queue_cap caps admitted
   requests but not these buffers, so without limits one client
   streaming newline-free bytes or submitting while never reading its
   responses could exhaust the daemon's memory. *)
let max_line_bytes = 8 * 1024 * 1024
let max_outbuf_bytes = 256 * 1024 * 1024

(* One client connection.  [c_order] holds the reorder tokens of every
   admitted request in admission order; [c_ready] holds responses that
   came back before their turn.  A response is released to the output
   only when its token reaches the queue head, so answers cross worker
   boundaries without ever reordering on the wire. *)
type conn = {
  c_io : Linebuf.t;
  c_order : int Queue.t;
  c_ready : (int, string) Hashtbl.t;
}

(* A [stats] request in flight: one part per worker alive at admission
   time, merged (field-wise sums) when the last part lands. *)
type fanout = {
  f_conn : int;
  f_token : int;  (** the client-facing reorder token *)
  f_id : Json.t;
  mutable f_parts : Json.t list;
  mutable f_missing : int;
}

type pend =
  | Direct of { d_conn : int; d_id : Json.t; d_worker : int }
      (** [d_id] and [d_worker] are only read when a worker dies *)
  | Part of fanout * int  (** worker index *)

type wstate = {
  w_index : int;
  mutable w_pid : int;
  mutable w_io : Linebuf.t;
  mutable w_down : bool;
}

(* Where requests execute: one in-process engine, or forked workers
   that each own one. *)
type shards = Local of Engine.t | Forked of wstate array

type t = {
  shards : shards;
  wcfg : Engine.config;  (** what a respawned worker runs *)
  conns : (int, conn) Hashtbl.t;
  pending : (int, pend) Hashtbl.t;  (** token -> continuation *)
  mutable next_conn : int;
  mutable next_token : int;
  mutable next_session : int;
  mutable stopping : bool;
  mutable respawns : int;
  mutable bad_exits : string list;  (** non-zero worker exits during drain *)
  interrupted : bool Atomic.t;
  mutable shutdown_req : bool;
}

type handle = t

let workers st = match st.shards with Local _ -> [||] | Forked ws -> ws
let worker_pids t = Array.to_list (Array.map (fun w -> w.w_pid) (workers t))
let request_stop t = Atomic.set t.interrupted true

(* ---------------------------------------------------------------- *)
(* Response delivery                                                  *)

(* Release every response whose turn has come. *)
let release c =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.c_order) do
    let tok = Queue.peek c.c_order in
    match Hashtbl.find_opt c.c_ready tok with
    | Some reply ->
        ignore (Queue.pop c.c_order);
        Hashtbl.remove c.c_ready tok;
        Linebuf.push c.c_io reply
    | None -> continue := false
  done

let deliver_ready st conn_id token reply =
  match Hashtbl.find_opt st.conns conn_id with
  | None -> ()  (* client hung up before its response was ready *)
  | Some c ->
      Hashtbl.replace c.c_ready token reply;
      release c

(* ---------------------------------------------------------------- *)
(* Stats merging                                                      *)

let rec merge_values a b =
  match (a, b) with
  | Json.Int x, Json.Int y -> Json.Int (x + y)
  | Json.Obj xs, Json.Obj ys -> Json.Obj (merge_fields xs ys)
  | _ -> a

and merge_fields xs ys =
  List.map
    (fun (k, v) ->
      match List.assoc_opt k ys with
      | Some w -> (k, merge_values v w)
      | None -> (k, v))
    xs
  @ List.filter (fun (k, _) -> not (List.mem_assoc k xs)) ys

let front_fields st =
  [
    ("workers", Json.Int (Array.length (workers st)));
    ("respawns", Json.Int st.respawns);
    ("connections", Json.Int (Hashtbl.length st.conns));
  ]

let finish_fanout st f =
  let merged =
    List.fold_left
      (fun acc part -> match acc with None -> Some part | Some a -> Some (merge_values a part))
      None f.f_parts
  in
  let fields =
    match merged with Some (Json.Obj l) -> l @ front_fields st | _ -> front_fields st
  in
  deliver_ready st f.f_conn f.f_token (Protocol.ok ~id:f.f_id (Json.Obj fields))

(* ---------------------------------------------------------------- *)
(* Pending resolution                                                 *)

let resolve st token reply =
  match Hashtbl.find_opt st.pending token with
  | None -> ()  (* duplicate answer from a confused worker: drop *)
  | Some p -> (
      Hashtbl.remove st.pending token;
      match p with
      | Direct d -> deliver_ready st d.d_conn token reply
      | Part (f, _) ->
          (match Json.of_string reply with
          | Ok v -> (
              match Json.member "ok" v with
              | Some part -> f.f_parts <- part :: f.f_parts
              | None -> ())
          | Error _ -> ());
          f.f_missing <- f.f_missing - 1;
          if f.f_missing = 0 then finish_fanout st f)

(* A pend whose worker died: Direct gets a structured internal error;
   a fanout part is simply counted as missing. *)
let fail_pend st token p =
  Hashtbl.remove st.pending token;
  match p with
  | Direct d ->
      deliver_ready st d.d_conn token
        (Protocol.error ~id:d.d_id Protocol.Internal
           "worker died before answering; session state on its shard is lost")
  | Part (f, _) ->
      f.f_missing <- f.f_missing - 1;
      if f.f_missing = 0 then finish_fanout st f

(* ---------------------------------------------------------------- *)
(* Worker lifecycle                                                   *)

let reap ?(timeout_s = 5.0) pid =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let kill_and_wait () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (_, _, _) -> Unix.WSIGNALED Sys.sigkill
  in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () >= deadline then kill_and_wait ()
        else begin
          Unix.sleepf 0.01;
          go ()
        end
    | _, status -> status
    | exception Unix.Unix_error (ECHILD, _, _) -> Unix.WEXITED 0
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> Unix.WEXITED 0
  in
  go ()

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let bad_exit w status =
  Printf.sprintf "worker %d (pid %d) %s" w.w_index w.w_pid (status_string status)

(* Fork one worker.  The child must not keep the front's other
   descriptors: a sibling pipe held open there would hide that
   sibling's EOF if the front died. *)
let spawn_worker ~engine ~listeners ~clients ~siblings i =
  let close_in_child =
    List.map (fun l -> l.Net.l_fd) listeners
    @ clients
    @ List.filter_map (fun o -> if o.w_down then None else Some (Linebuf.fd o.w_io)) siblings
  in
  let fresh = Worker.spawn ~close_in_child ~engine () in
  { w_index = i; w_pid = fresh.Worker.w_pid; w_io = Linebuf.create fresh.Worker.w_fd; w_down = false }

(* EOF or a corrupt frame on a worker pipe: fail its in-flight
   requests, reap it, and (outside a drain) fork a replacement onto the
   same shard.  Sessions that lived there are gone — later requests for
   them get [unknown_session] from the fresh engine, which is the
   documented crash policy. *)
let worker_died st ~listeners w =
  if not w.w_down then begin
    w.w_down <- true;
    Linebuf.drop w.w_io;
    (try Unix.close (Linebuf.fd w.w_io) with Unix.Unix_error (_, _, _) -> ());
    let status = reap w.w_pid in
    if st.stopping && status <> Unix.WEXITED 0 then
      st.bad_exits <- bad_exit w status :: st.bad_exits;
    let affected =
      Hashtbl.fold
        (fun token p acc ->
          match p with
          | Direct d when d.d_worker = w.w_index -> (token, p) :: acc
          | Part (_, wi) when wi = w.w_index -> (token, p) :: acc
          | _ -> acc)
        st.pending []
    in
    List.iter (fun (token, p) -> fail_pend st token p) affected;
    if not st.stopping then begin
      let fresh =
        spawn_worker ~engine:st.wcfg ~listeners
          ~clients:(Hashtbl.fold (fun _ c acc -> Linebuf.fd c.c_io :: acc) st.conns [])
          ~siblings:(Array.to_list (workers st)) w.w_index
      in
      w.w_pid <- fresh.w_pid;
      w.w_io <- fresh.w_io;
      w.w_down <- false;
      st.respawns <- st.respawns + 1
    end
  end

let send st w token line =
  if w.w_down then
    (* Only reachable when a worker is down for good (draining): answer
       for it rather than leave the token dangling. *)
    resolve st token
      (Protocol.error ~id:Json.Null Protocol.Internal "worker unavailable")
  else Linebuf.push w.w_io (Frame.encode (Frame.Query (token, line)))

let read_worker st ~listeners w =
  let on_line line =
    if line <> "" then
      match Frame.decode line with
      | Ok (Frame.Answer (token, reply)) -> resolve st token reply
      | Ok (Frame.Query _ | Frame.Stop) | Error _ ->
          (* Protocol corruption: answers can no longer be trusted to
             carry the right token.  Treat the worker as dead (its
             pendings fail, a fresh one spawns). *)
          (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
          Linebuf.drop w.w_io
  in
  match Linebuf.read w.w_io on_line with
  | `More -> ()
  | `Eof | `Overlong -> worker_died st ~listeners w

(* A worker pipe's input only ends through [worker_died], so an ended
   pipe after a flush means the write failed. *)
let flush_worker st ~listeners w =
  Linebuf.flush w.w_io;
  if Linebuf.eof w.w_io then worker_died st ~listeners w

(* ---------------------------------------------------------------- *)
(* Admission and routing                                              *)

let take_token st c =
  let tok = st.next_token in
  st.next_token <- tok + 1;
  Queue.add tok c.c_order;
  tok

let fresh_token st =
  let tok = st.next_token in
  st.next_token <- tok + 1;
  tok

let reply_at_front c token reply =
  Hashtbl.replace c.c_ready token reply;
  release c

let route st ws conn_id c id wi line =
  let tok = take_token st c in
  Hashtbl.replace st.pending tok (Direct { d_conn = conn_id; d_id = id; d_worker = wi });
  send st ws.(wi) tok line

(* Rebuild a gen/load_instance request with the front-minted session id
   attached as the "_session" param.  Any "_session" the client sent is
   dropped first: external clients never choose their own ids. *)
let rewrite_with_session (req : Protocol.request) sid =
  let fields =
    match req.params with
    | Json.Obj l -> List.filter (fun (k, _) -> k <> "_session") l
    | _ -> []
  in
  let params = Json.Obj (fields @ [ ("_session", Json.Str sid) ]) in
  let base = [ ("id", req.id); ("method", Json.Str req.meth); ("params", params) ] in
  let base =
    match req.deadline_ms with
    | Some ms -> base @ [ ("deadline_ms", Json.Int ms) ]
    | None -> base
  in
  Json.to_string (Json.Obj base)

(* The in-process shard: the engine parses the line itself, so ping,
   stats and shutdown are its own.  The token doubles as the engine's
   client id; an immediate [`Reply] jumps the reorder queue. *)
let admit_local st engine conn_id c line =
  match Engine.submit engine ~client:st.next_token line with
  | `Reply r -> Linebuf.push c.c_io r
  | `Queued ->
      let tok = take_token st c in
      Hashtbl.replace st.pending tok
        (Direct { d_conn = conn_id; d_id = Json.Null; d_worker = 0 })

let admit_forked st ws conn_id c line =
  match Protocol.parse_request line with
  | Error (id, code, msg) ->
      (* Immediate rejections jump the reorder queue, exactly as the
         engine's [`Reply] path does on the in-process shard. *)
      Linebuf.push c.c_io (Protocol.error ~id code msg)
  | Ok req -> (
      if st.stopping then
        Linebuf.push c.c_io
          (Protocol.error ~id:req.id Protocol.Shutting_down "server is draining")
      else
        match req.meth with
        | "ping" ->
            let tok = take_token st c in
            reply_at_front c tok (Protocol.ok ~id:req.id (Json.Obj [ ("pong", Json.Bool true) ]))
        | "shutdown" ->
            st.shutdown_req <- true;
            let tok = take_token st c in
            reply_at_front c tok
              (Protocol.ok ~id:req.id (Json.Obj [ ("stopping", Json.Bool true) ]))
        | "stats" -> (
            let alive =
              Array.fold_left (fun acc w -> if w.w_down then acc else w :: acc) [] ws
            in
            let tok = take_token st c in
            match alive with
            | [] -> reply_at_front c tok (Protocol.ok ~id:req.id (Json.Obj (front_fields st)))
            | alive ->
                let f =
                  {
                    f_conn = conn_id;
                    f_token = tok;
                    f_id = req.id;
                    f_parts = [];
                    f_missing = List.length alive;
                  }
                in
                List.iter
                  (fun w ->
                    let wtok = fresh_token st in
                    Hashtbl.replace st.pending wtok (Part (f, w.w_index));
                    send st w wtok line)
                  alive)
        | "gen" | "load_instance" ->
            let sid = Shard.mint st.next_session in
            st.next_session <- st.next_session + 1;
            let wi = Shard.of_session ~workers:(Array.length ws) sid in
            route st ws conn_id c req.id wi (rewrite_with_session req sid)
        | _ ->
            (* Sessionless or malformed-session requests all hash the
               empty string — any single worker can answer bad_params /
               unknown_session correctly. *)
            let key =
              match Json.member "session" req.params with
              | Some (Json.Str s) -> s
              | _ -> ""
            in
            let wi = Shard.of_session ~workers:(Array.length ws) key in
            route st ws conn_id c req.id wi line)

let admit st conn_id c line =
  if String.trim line <> "" then
    match st.shards with
    | Local engine -> admit_local st engine conn_id c line
    | Forked ws -> admit_forked st ws conn_id c line

(* ---------------------------------------------------------------- *)
(* Client IO                                                          *)

let read_client st conn_id c =
  match Linebuf.read c.c_io (admit st conn_id c) with
  | `More | `Eof -> ()
  | `Overlong ->
      (* Answer with a structured error; the connection closes once it
         is flushed. *)
      Linebuf.push c.c_io
        (Protocol.error ~id:Json.Null Protocol.Bad_request
           (Printf.sprintf "request line exceeds %d bytes" max_line_bytes))

(* A connection is closed once it was dropped, or once its input ended
   and every admitted request has been answered and flushed. *)
let sweep st =
  let dead =
    Hashtbl.fold
      (fun conn_id c acc ->
        if
          Linebuf.dropped c.c_io
          || Linebuf.eof c.c_io
             && Linebuf.pending c.c_io = 0
             && Queue.is_empty c.c_order
        then (conn_id, c) :: acc
        else acc)
      st.conns []
  in
  List.iter
    (fun (conn_id, c) ->
      Hashtbl.remove st.conns conn_id;
      try Unix.close (Linebuf.fd c.c_io) with Unix.Unix_error (_, _, _) -> ())
    dead

(* ---------------------------------------------------------------- *)
(* Event loop                                                         *)

type slot = Slistener of Net.listener | Sclient of int * conn | Sworker of wstate

let rec accept_loop st l =
  match Net.accept l with
  | Some fd ->
      let conn_id = st.next_conn in
      st.next_conn <- conn_id + 1;
      Hashtbl.replace st.conns conn_id
        {
          c_io = Linebuf.create ~max_line:max_line_bytes ~max_out:max_outbuf_bytes fd;
          c_order = Queue.create ();
          c_ready = Hashtbl.create 8;
        };
      accept_loop st l
  | None -> ()

(* One poll(2) wake-up: accept, read and admit, run a batch on the
   in-process shard, flush.  poll rather than select because select
   fails on any fd number >= FD_SETSIZE (1024), which "thousands of
   connections" crosses. *)
let step st ~listeners =
  let slots = ref [] in
  List.iter (fun l -> slots := Slistener l :: !slots) listeners;
  Hashtbl.iter
    (fun conn_id c ->
      if (not (Linebuf.eof c.c_io)) || Linebuf.pending c.c_io > 0 then
        slots := Sclient (conn_id, c) :: !slots)
    st.conns;
  Array.iter (fun w -> if not w.w_down then slots := Sworker w :: !slots) (workers st);
  let slots = Array.of_list !slots in
  let n = Array.length slots in
  let io_of = function
    | Slistener l -> (l.Net.l_fd, Poll.pollin)
    | Sclient (_, c) ->
        ( Linebuf.fd c.c_io,
          (if Linebuf.eof c.c_io then 0 else Poll.pollin)
          lor if Linebuf.pending c.c_io > 0 then Poll.pollout else 0 )
    | Sworker w ->
        ( Linebuf.fd w.w_io,
          Poll.pollin lor if Linebuf.pending w.w_io > 0 then Poll.pollout else 0 )
  in
  let fds = Array.map (fun s -> fst (io_of s)) slots in
  let events = Array.map (fun s -> snd (io_of s)) slots in
  let revents = Array.make n 0 in
  (* Never sleep while the in-process engine has queued work. *)
  let timeout_ms =
    match st.shards with Local e when Engine.pending e > 0 -> 0 | _ -> 50
  in
  (match Poll.poll ~fds ~events ~revents ~n ~timeout_ms with
  | _ -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  Array.iteri
    (fun i slot ->
      let r = revents.(i) in
      match slot with
      | Slistener l -> if r land Poll.pollin <> 0 then accept_loop st l
      | Sclient (conn_id, c) ->
          if r land Poll.pollin <> 0 && not (Linebuf.eof c.c_io) then
            read_client st conn_id c
          else if r land Poll.pollerr <> 0 then Linebuf.shut_input c.c_io
      | Sworker w ->
          if w.w_down then ()
          else if r land Poll.pollin <> 0 then read_worker st ~listeners w
          else if r land Poll.pollerr <> 0 then worker_died st ~listeners w)
    slots;
  (match st.shards with
  | Local e -> List.iter (fun (tok, reply) -> resolve st tok reply) (Engine.run_batch e)
  | Forked ws ->
      (* Opportunistic flush: frames routed this wake-up were not in
         anyone's pollout set. *)
      Array.iter
        (fun w -> if (not w.w_down) && Linebuf.pending w.w_io > 0 then flush_worker st ~listeners w)
        ws);
  Hashtbl.iter (fun _ c -> if Linebuf.pending c.c_io > 0 then Linebuf.flush c.c_io) st.conns;
  sweep st

let stop_wanted st =
  Atomic.get st.interrupted || st.shutdown_req
  || match st.shards with Local e -> Engine.shutdown_requested e | Forked _ -> false

(* ---------------------------------------------------------------- *)
(* Drain                                                              *)

(* Resolve every outstanding token: workers keep executing and the loop
   keeps routing their answers (new requests are answered
   [shutting_down]); then stop and reap every worker. *)
let drain_workers st ws =
  let give_up = Unix.gettimeofday () +. 30.0 in
  while Hashtbl.length st.pending > 0 && Unix.gettimeofday () < give_up do
    step st ~listeners:[]
  done;
  let leftovers = Hashtbl.fold (fun tok p acc -> (tok, p) :: acc) st.pending [] in
  List.iter (fun (tok, p) -> fail_pend st tok p) leftovers;
  (* Stop frames: each worker drains its engine, flushes, exits 0. *)
  Array.iter
    (fun w ->
      if not w.w_down then begin
        Linebuf.push w.w_io (Frame.encode Frame.Stop);
        Linebuf.flush_blocking w.w_io;
        (try Unix.close (Linebuf.fd w.w_io) with Unix.Unix_error (_, _, _) -> ());
        w.w_down <- true
      end)
    ws;
  Array.iter
    (fun w ->
      let status = reap ~timeout_s:10.0 w.w_pid in
      if status <> Unix.WEXITED 0 then st.bad_exits <- st.bad_exits @ [ bad_exit w status ])
    ws

let drain st listeners =
  st.stopping <- true;
  List.iter Net.close_listener listeners;
  (match st.shards with
  | Local e ->
      Engine.begin_shutdown e;
      List.iter (fun (tok, reply) -> resolve st tok reply) (Engine.drain e)
  | Forked ws -> drain_workers st ws);
  (* Flush released responses to clients (bounded budget), then close. *)
  let flush_deadline = Unix.gettimeofday () +. 5.0 in
  let rec flush_clients () =
    let waiting =
      Hashtbl.fold
        (fun _ c acc -> if Linebuf.pending c.c_io > 0 then c :: acc else acc)
        st.conns []
    in
    if waiting <> [] && Unix.gettimeofday () < flush_deadline then begin
      List.iter (fun c -> Linebuf.flush c.c_io) waiting;
      if List.exists (fun c -> Linebuf.pending c.c_io > 0) waiting then begin
        Unix.sleepf 0.01;
        flush_clients ()
      end
    end
  in
  flush_clients ();
  Hashtbl.iter
    (fun _ c -> try Unix.close (Linebuf.fd c.c_io) with Unix.Unix_error (_, _, _) -> ())
    st.conns;
  Hashtbl.reset st.conns;
  if st.bad_exits <> [] then
    failwith ("unclean worker exit: " ^ String.concat "; " st.bad_exits)

(* ---------------------------------------------------------------- *)
(* Entry points                                                       *)

(* SIGINT/SIGTERM set [interrupted] for the duration of [f]; SIGPIPE is
   ignored (a vanished peer is an EPIPE write error, not a death). *)
let with_signals interrupted f =
  let set s behavior =
    match Sys.signal s behavior with
    | prev -> Some prev
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let stop = Sys.Signal_handle (fun _ -> Atomic.set interrupted true) in
  let old_int = set Sys.sigint stop in
  let old_term = set Sys.sigterm stop in
  let old_pipe = set Sys.sigpipe Sys.Signal_ignore in
  Fun.protect f ~finally:(fun () ->
      let restore s = Option.iter (fun prev -> ignore (set s prev)) in
      restore Sys.sigint old_int;
      restore Sys.sigterm old_term;
      restore Sys.sigpipe old_pipe)

let run ?on_ready ~engine ~workers listeners =
  if workers < 1 then invalid_arg "Front.run: workers must be >= 1";
  (* One engine per worker process: parallelism comes from the shards,
     so each worker defaults to a single-domain pool unless the caller
     explicitly sizes within-worker jobs.  The in-process shard runs
     the caller's config as given. *)
  let wcfg =
    if workers = 1 then engine
    else
      {
        engine with
        Engine.assign_ids = true;
        jobs = Some (max 1 (Option.value engine.Engine.jobs ~default:1));
      }
  in
  let shards =
    if workers = 1 then Local (Engine.create wcfg)
    else begin
      let acc = ref [] in
      for i = 0 to workers - 1 do
        acc := spawn_worker ~engine:wcfg ~listeners ~clients:[] ~siblings:!acc i :: !acc
      done;
      Forked (Array.of_list (List.rev !acc))
    end
  in
  let st =
    {
      shards;
      wcfg;
      conns = Hashtbl.create 64;
      pending = Hashtbl.create 256;
      next_conn = 1;
      next_token = 1;
      next_session = 0;
      stopping = false;
      respawns = 0;
      bad_exits = [];
      interrupted = Atomic.make false;
      shutdown_req = false;
    }
  in
  with_signals st.interrupted (fun () ->
      Option.iter (fun f -> f st) on_ready;
      while not (stop_wanted st) do
        step st ~listeners
      done;
      drain st listeners)

(* One implicit connection on stdin/stdout, used by the cram tests:
   read until EOF (or an executed [shutdown]), answering each line's
   batch in admission order, then drain. *)
let run_stdio ~engine =
  let engine = Engine.create engine in
  let interrupted = Atomic.make false in
  let emit replies =
    List.iter
      (fun (_, reply) ->
        print_string reply;
        print_newline ())
      replies
  in
  with_signals interrupted (fun () ->
      (try
         while not (Atomic.get interrupted || Engine.shutdown_requested engine) do
           let line = try input_line stdin with End_of_file -> raise Exit in
           (if String.trim line <> "" then
              match Engine.submit engine ~client:0 line with
              | `Queued -> ()
              | `Reply r -> emit [ (0, r) ]);
           emit (Engine.run_batch engine)
         done
       with Exit -> ());
      Engine.begin_shutdown engine;
      emit (Engine.drain engine))
