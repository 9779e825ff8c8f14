type t = { w_pid : int; w_fd : Unix.file_descr }

let run ~engine fd =
  let engine = Engine.create engine in
  Unix.set_nonblock fd;
  let io = Linebuf.create fd in
  let answer (token, reply) = Linebuf.push io (Frame.encode (Frame.Answer (token, reply))) in
  let drain_and_exit () =
    Engine.begin_shutdown engine;
    List.iter answer (Engine.drain engine);
    Linebuf.flush_blocking io;
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    (* _exit, not exit: at_exit callbacks and channel flushers inherited
       from the parent must not run twice. *)
    Unix._exit 0
  in
  let on_line line =
    if line <> "" then
      match Frame.decode line with
      | Ok (Frame.Query (token, payload)) -> (
          match Engine.submit engine ~client:token payload with
          | `Queued -> ()
          | `Reply r -> answer (token, r))
      | Ok Frame.Stop -> drain_and_exit ()
      | Ok (Frame.Answer _) | Error _ ->
          (* A malformed frame means the pipe is corrupt; continuing
             would misroute answers.  Drain what we have and exit. *)
          drain_and_exit ()
  in
  let fds = [| fd |] in
  let events = [| 0 |] in
  let revents = [| 0 |] in
  let rec loop () =
    events.(0) <- (Poll.pollin lor if Linebuf.pending io > 0 then Poll.pollout else 0);
    let timeout_ms = if Engine.pending engine > 0 then 0 else 50 in
    ignore (Poll.poll ~fds ~events ~revents ~n:1 ~timeout_ms);
    if revents.(0) land Poll.pollin <> 0 then begin
      (* EOF: the front went away. *)
      match Linebuf.read io on_line with `More -> () | `Eof | `Overlong -> drain_and_exit ()
    end
    else if revents.(0) land Poll.pollerr <> 0 then drain_and_exit ();
    List.iter answer (Engine.run_batch engine);
    Linebuf.flush io;
    (* Input only ends above, so an ended pipe here means the write failed. *)
    if Linebuf.eof io then drain_and_exit ();
    loop ()
  in
  (* Group signals (Ctrl-C on a terminal) must not kill workers before
     the front has drained them; shutdown arrives over the pipe. *)
  (try Sys.set_signal Sys.sigint Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  loop ()

let spawn ?(close_in_child = []) ~engine () =
  let parent_fd, child_fd = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  (* Anything buffered in this process would otherwise be flushed twice
     (once per process) when both sides exit. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try Unix.close parent_fd with Unix.Unix_error (_, _, _) -> ());
      (* Listener and client fds inherited across the fork would keep
         connections half-alive if the front dies; a worker owns only
         its pipe. *)
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
        close_in_child;
      run ~engine child_fd
  | pid ->
      (try Unix.close child_fd with Unix.Unix_error (_, _, _) -> ());
      Unix.set_nonblock parent_fd;
      { w_pid = pid; w_fd = parent_fd }
