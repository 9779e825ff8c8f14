(* Processes, line-oriented pipes and sockets, and the machine
   fingerprint — the bench's only contact with the operating system. *)

let now_ns = Bbc_obs.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let read_file_opt path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---------------------------------------------------------------- *)
(* Line reader over a raw descriptor (daemon stdout, TCP sockets).   *)

module Lines = struct
  type t = { fd : Unix.file_descr; buf : Buffer.t; mutable eof : bool }

  let of_fd fd = { fd; buf = Buffer.create 4096; eof = false }
  let chunk = Bytes.create 65536

  let take t =
    let s = Buffer.contents t.buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
        Buffer.clear t.buf;
        Buffer.add_substring t.buf s (i + 1) (String.length s - i - 1);
        Some (String.sub s 0 i)

  (* One read of whatever is available. *)
  let fill t =
    match Unix.read t.fd chunk 0 (Bytes.length chunk) with
    | 0 -> t.eof <- true
    | n -> Buffer.add_subbytes t.buf chunk 0 n
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> t.eof <- true

  let readable fds timeout_s =
    match Unix.select fds [] [] timeout_s with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

  let read_line ?(timeout_s = 30.0) t =
    let deadline = now_ns () + int_of_float (timeout_s *. 1e9) in
    let rec go () =
      match take t with
      | Some l -> Some l
      | None ->
          let left = float_of_int (deadline - now_ns ()) /. 1e9 in
          if t.eof || left <= 0.0 then None
          else begin
            if readable [ t.fd ] left <> [] then fill t;
            go ()
          end
    in
    go ()
end

(* ---------------------------------------------------------------- *)
(* Child processes                                                   *)

type child = { pid : int; out : Lines.t }

let dev_null = lazy (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)

(* [prog args] with stdin from /dev/null, stdout on a pipe to us and
   stderr shared.  Uses [Unix.create_process] (posix_spawn), which stays
   safe after the bench has started domains, unlike [fork]. *)
let spawn prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) (Lazy.force dev_null) w
      Unix.stderr
  in
  Unix.close w;
  { pid; out = Lines.of_fd r }

(* Wait for [pid]; past [timeout_s] it is SIGKILLed, so no child outlives
   the bench. *)
let reap ?(timeout_s = 10.0) pid =
  let deadline = now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now_ns () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
          snd (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.002;
          go ()
        end
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
  in
  go ()

let close_out c = try Unix.close c.out.Lines.fd with Unix.Unix_error (_, _, _) -> ()

(* ---------------------------------------------------------------- *)
(* /proc readings                                                    *)

let status_kb pid field =
  match read_file_opt (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ f; v ] when f = field -> (
              match Scanf.sscanf (String.trim v) "%d" Fun.id with
              | kb -> kb
              | exception _ -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' s)

(* Peak resident set (VmHWM) of [pid], in MB. *)
let peak_rss_mb pid = float_of_int (status_kb pid "VmHWM") /. 1024.0

(* ---------------------------------------------------------------- *)
(* Fingerprint                                                       *)

let loadavg () =
  match read_file_opt "/proc/loadavg" with
  | None -> []
  | Some s -> (
      match String.split_on_char ' ' s with
      | a :: b :: c :: _ -> List.filter_map float_of_string_opt [ a; b; c ]
      | _ -> [])

let cpu_model () =
  match read_file_opt "/proc/cpuinfo" with
  | None -> "unknown"
  | Some s -> (
      let model =
        List.find_map
          (fun line ->
            match String.index_opt line ':' with
            | Some i when String.trim (String.sub line 0 i) = "model name" ->
                Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> None)
          (String.split_on_char '\n' s)
      in
      match model with Some m -> m | None -> "unknown")

(* The checked-out commit, read from .git without running git; "unknown"
   outside a work tree (e.g. an exported source tree). *)
let git_commit () =
  let trim = String.trim in
  match read_file_opt ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      match String.starts_with ~prefix:"ref: " head with
      | false -> head
      | true -> (
          let r = String.sub head 5 (String.length head - 5) in
          match read_file_opt (Filename.concat ".git" r) with
          | Some sha -> trim sha
          | None -> (
              let packed = Option.value ~default:"" (read_file_opt ".git/packed-refs") in
              let hit =
                List.find_map
                  (fun line ->
                    match String.split_on_char ' ' (trim line) with
                    | [ sha; name ] when name = r -> Some sha
                    | _ -> None)
                  (String.split_on_char '\n' packed)
              in
              match hit with Some sha -> sha | None -> "unknown")))
