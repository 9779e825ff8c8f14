module Json = Bbc.Json
module Net = Bbc_server.Net

type opts = { threads : int; retries : int; backoff_ms : int }

let retries_total = Bbc_obs.counter "campaign.server.retries"
let reconnects_total = Bbc_obs.counter "campaign.server.reconnects"

let endpoint_of_string s =
  match String.index_opt s ':' with
  | None -> (
      (* No colon: a bare port number or a socket path. *)
      match int_of_string_opt s with
      | Some port -> Ok (Net.Tcp ("127.0.0.1", port))
      | None -> Ok (Net.Unix_path s))
  | Some _ when String.length s > 5 && String.sub s 0 5 = "unix:" ->
      Ok (Net.Unix_path (String.sub s 5 (String.length s - 5)))
  | Some _ ->
      let spec =
        if String.length s > 4 && String.sub s 0 4 = "tcp:" then
          String.sub s 4 (String.length s - 4)
        else s
      in
      Result.map (fun (host, port) -> Net.Tcp (host, port)) (Net.parse_tcp spec)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect endpoint =
  match Net.connect endpoint with
  | Error _ as e -> e
  | Ok fd ->
      Ok { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

type attempt =
  | Success of Bbc.Trial.summary
  | Fatal of string  (** non-retryable: quarantine now *)
  | Transient of string  (** backpressure / transport: retry *)

let request_line id trial =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("method", Json.Str "run_unit");
         ("params", Json.Obj [ ("trial", Bbc.Trial.to_json trial) ]);
       ])

let retryable_code = function
  | "overloaded" | "timeout" | "shutting_down" -> true
  | _ -> false

let attempt conn id trial =
  match
    output_string conn.oc (request_line id trial);
    output_char conn.oc '\n';
    flush conn.oc;
    input_line conn.ic
  with
  | exception End_of_file -> Transient "connection closed by server"
  | exception Sys_error m -> Transient m
  | exception Unix.Unix_error (e, _, _) -> Transient (Unix.error_message e)
  | line -> (
      match Json.of_string line with
      | Error m -> Fatal (Printf.sprintf "unparseable response: %s" m)
      | Ok v -> (
          match Json.member "ok" v with
          | Some body -> (
              match Bbc.Trial.summary_of_json body with
              | Ok s -> Success s
              | Error m -> Fatal (Printf.sprintf "bad run_unit result: %s" m))
          | None -> (
              let code, msg =
                match Json.member "error" v with
                | Some e ->
                    ( (match Json.member "code" e with
                      | Some (Json.Str c) -> c
                      | _ -> "internal"),
                      match Json.member "message" e with
                      | Some (Json.Str m) -> m
                      | _ -> "unknown error" )
                | None -> ("internal", "response has neither ok nor error")
              in
              if retryable_code code then Transient (code ^ ": " ^ msg)
              else Fatal (code ^ ": " ^ msg))))

(* One worker thread: pull unit ids off the shared cursor, keep a
   private connection, retry transients with exponential backoff. *)
let worker ~endpoint ~opts ~trial_of ~units ~cursor ~lock ~results () =
  let conn = ref None in
  let get_conn () =
    match !conn with
    | Some c -> Ok c
    | None -> (
        match connect endpoint with
        | Ok c ->
            conn := Some c;
            Ok c
        | Error _ as e -> e)
  in
  let drop_conn () =
    (match !conn with Some c -> close c | None -> ());
    conn := None;
    Bbc_obs.incr reconnects_total
  in
  let backoff k =
    let ms = opts.backoff_ms * (1 lsl min k 6) in
    Thread.delay (float_of_int (min ms 2000) /. 1000.0)
  in
  let run_one id =
    let trial = trial_of id in
    let rec go k last_err =
      if k > opts.retries then
        { Checkpoint.unit_id = id; payload = Checkpoint.Failed last_err }
      else begin
        if k > 0 then begin
          Bbc_obs.incr retries_total;
          backoff (k - 1)
        end;
        match get_conn () with
        | Error m ->
            drop_conn ();
            go (k + 1) ("connect: " ^ m)
        | Ok c -> (
            match attempt c id trial with
            | Success s -> { Checkpoint.unit_id = id; payload = Checkpoint.Done s }
            | Fatal m -> { Checkpoint.unit_id = id; payload = Checkpoint.Failed m }
            | Transient m ->
                drop_conn ();
                go (k + 1) m)
      end
    in
    go 0 "unreachable"
  in
  let rec loop () =
    Mutex.lock lock;
    let i = !cursor in
    if i >= Array.length units then Mutex.unlock lock
    else begin
      cursor := i + 1;
      Mutex.unlock lock;
      let entry = run_one units.(i) in
      Mutex.lock lock;
      results := entry :: !results;
      Mutex.unlock lock;
      loop ()
    end
  in
  loop ();
  match !conn with Some c -> close c | None -> ()

let run_units ~endpoint ~opts ~trial_of units =
  let lock = Mutex.create () in
  let cursor = ref 0 in
  let results = ref [] in
  let n = max 1 (min opts.threads (max 1 (Array.length units))) in
  let threads =
    List.init n (fun _ ->
        Thread.create (worker ~endpoint ~opts ~trial_of ~units ~cursor ~lock ~results) ())
  in
  List.iter Thread.join threads;
  !results
