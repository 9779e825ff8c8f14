module Json = Bbc.Json

(* Per-connection buffer bounds: the engine's queue_cap caps admitted
   requests but not these buffers, so without limits one client
   streaming newline-free bytes or submitting while never reading its
   responses could exhaust the daemon's memory. *)
let max_line_bytes = 8 * 1024 * 1024
let max_outbuf_bytes = 256 * 1024 * 1024

(* One client connection.  [c_queued] counts its requests the engine
   holds: the connection closes only once they are all answered. *)
type conn = { c_io : Linebuf.t; mutable c_queued : int }

type t = {
  engine : Engine.t;
  conns : (int, conn) Hashtbl.t;  (** connection id -> connection *)
  mutable next_conn : int;
  interrupted : bool Atomic.t;
}

(* ---------------------------------------------------------------- *)
(* Admission and delivery                                             *)

(* The connection id is the engine's client id.  An immediate [`Reply]
   goes straight out; queued requests come back from
   {!Engine.run_batch} in admission order. *)
let admit st conn_id c line =
  if String.trim line <> "" then
    match Engine.submit st.engine ~client:conn_id line with
    | `Reply r -> Linebuf.push c.c_io r
    | `Queued -> c.c_queued <- c.c_queued + 1

let deliver st replies =
  List.iter
    (fun (conn_id, reply) ->
      match Hashtbl.find_opt st.conns conn_id with
      | None -> ()  (* client hung up before its response was ready *)
      | Some c ->
          c.c_queued <- c.c_queued - 1;
          Linebuf.push c.c_io reply)
    replies

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
          || Linebuf.eof c.c_io && Linebuf.pending c.c_io = 0 && c.c_queued = 0
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

type slot = Slistener of Net.listener | Sclient of int * conn

let rec accept_loop st l =
  match Net.accept l with
  | Some fd ->
      let conn_id = st.next_conn in
      st.next_conn <- conn_id + 1;
      Hashtbl.replace st.conns conn_id
        {
          c_io = Linebuf.create ~max_line:max_line_bytes ~max_out:max_outbuf_bytes fd;
          c_queued = 0;
        };
      accept_loop st l
  | None -> ()

(* One poll(2) wake-up: accept, read and admit, run one engine batch,
   flush.  poll rather than select because select fails on any fd
   number >= FD_SETSIZE (1024), which "thousands of connections"
   crosses. *)
let step st ~listeners =
  let slots = ref [] in
  List.iter (fun l -> slots := Slistener l :: !slots) listeners;
  Hashtbl.iter
    (fun conn_id c ->
      if (not (Linebuf.eof c.c_io)) || Linebuf.pending c.c_io > 0 then
        slots := Sclient (conn_id, c) :: !slots)
    st.conns;
  let slots = Array.of_list !slots in
  let n = Array.length slots in
  let io_of = function
    | Slistener l -> (l.Net.l_fd, Poll.pollin)
    | Sclient (_, c) ->
        ( Linebuf.fd c.c_io,
          (if Linebuf.eof c.c_io then 0 else Poll.pollin)
          lor if Linebuf.pending c.c_io > 0 then Poll.pollout else 0 )
  in
  let fds = Array.map (fun s -> fst (io_of s)) slots in
  let events = Array.map (fun s -> snd (io_of s)) slots in
  let revents = Array.make n 0 in
  (* Never sleep while the engine has queued work. *)
  let timeout_ms = if Engine.pending st.engine > 0 then 0 else 50 in
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
          else if r land Poll.pollerr <> 0 then Linebuf.shut_input c.c_io)
    slots;
  deliver st (Engine.run_batch st.engine);
  Hashtbl.iter (fun _ c -> if Linebuf.pending c.c_io > 0 then Linebuf.flush c.c_io) st.conns;
  sweep st

let stop_wanted st = Atomic.get st.interrupted || Engine.shutdown_requested st.engine

(* ---------------------------------------------------------------- *)
(* Drain                                                              *)

let drain st listeners =
  List.iter Net.close_listener listeners;
  Engine.begin_shutdown st.engine;
  deliver st (Engine.drain st.engine);
  (* Flush the answers to clients (bounded budget), then close. *)
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
  Hashtbl.reset st.conns

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

let run ?on_ready ~engine listeners =
  let st =
    {
      engine = Engine.create engine;
      conns = Hashtbl.create 64;
      next_conn = 1;
      interrupted = Atomic.make false;
    }
  in
  with_signals st.interrupted (fun () ->
      Option.iter (fun f -> f ()) on_ready;
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
