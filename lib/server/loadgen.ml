module Json = Bbc.Json

type method_stats = {
  meth : string;
  count : int;
  m_p50_ms : float;
  m_p99_ms : float;
}

type summary = {
  conns : int;
  sessions : int;
  requests : int;
  errors : int;
  protocol_errors : int;
  elapsed_s : float;
  req_per_s : float;
  p50_ms : float;
  p99_ms : float;
  by_method : method_stats list;
  consistent : bool;
}

let summary_to_json s =
  Json.Obj
    [
      ("conns", Json.Int s.conns);
      ("sessions", Json.Int s.sessions);
      ("requests", Json.Int s.requests);
      ("errors", Json.Int s.errors);
      ("protocol_errors", Json.Int s.protocol_errors);
      ("elapsed_s", Json.Float s.elapsed_s);
      ("req_per_s", Json.Float s.req_per_s);
      ("p50_ms", Json.Float s.p50_ms);
      ("p99_ms", Json.Float s.p99_ms);
      ( "by_method",
        Json.Obj
          (List.map
             (fun m ->
               ( m.meth,
                 Json.Obj
                   [
                     ("count", Json.Int m.count);
                     ("p50_ms", Json.Float m.m_p50_ms);
                     ("p99_ms", Json.Float m.m_p99_ms);
                   ] ))
             s.by_method) );
      ("consistent", Json.Bool s.consistent);
    ]

(* ---------------------------------------------------------------- *)
(* Blocking wire helpers (setup and shutdown use one ordinary
   channel-based connection; only the load phase is an event loop).    *)

type bconn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let bconnect endpoint =
  match Net.connect endpoint with
  | Error e -> Error e
  | Ok fd ->
      Ok { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let bdisconnect c =
  (try flush c.oc with Sys_error _ -> ());
  try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

let rpc c req =
  match
    output_string c.oc (Json.to_string req);
    output_char c.oc '\n';
    flush c.oc;
    input_line c.ic
  with
  | line -> Ok line
  | exception (End_of_file | Sys_error _) -> Error "connection closed by server"

(* A response is sound when it parses, carries the id we sent, and has
   exactly one of "ok"/"error".  Returns the normalized payload used by
   the consistency cross-check. *)
let classify ~id line =
  match Json.of_string line with
  | Error e -> `Protocol ("unparseable response: " ^ e)
  | Ok json -> (
      match Json.member "id" json with
      | Some (Json.Str rid) when rid = id -> (
          match (Json.member "ok" json, Json.member "error" json) with
          | Some ok, None -> `Ok (Json.to_string ok)
          | None, Some err -> `Err (Json.to_string err)
          | _ -> `Protocol "response has neither ok nor error")
      | _ -> `Protocol "response id does not match request id")

(* ---------------------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let mix = [| "cost"; "best_response"; "stable" |]

let query ~session ~deadline_ms ~n ~id i =
  let meth = mix.(i mod Array.length mix) in
  let base =
    match meth with
    | "stable" -> [ ("session", Json.Str session) ]
    | _ -> [ ("session", Json.Str session); ("node", Json.Int (i mod n)) ]
  in
  let fields =
    [
      ("id", Json.Str id);
      ("method", Json.Str meth);
      ("params", Json.Obj base);
    ]
    @
    match deadline_ms with
    | Some ms -> [ ("deadline_ms", Json.Int ms) ]
    | None -> []
  in
  (meth, Json.Obj fields)

(* Consistency key: read-only queries over unmutated sessions that were
   all generated identically must answer identically — across clients,
   across interleavings and across sessions.  The key deliberately
   omits the session id so the cross-check spans sessions. *)
let query_key ~n meth i =
  match meth with "stable" -> meth | _ -> Printf.sprintf "%s/%d" meth (i mod n)

type shared = {
  latencies : (string, float list ref) Hashtbl.t;  (** method -> ms samples *)
  answers : (string, string) Hashtbl.t;  (** query key -> normalized payload *)
  mutable total : int;
  mutable errs : int;
  mutable proto_errs : int;
  mutable inconsistent : bool;
}

let record sh ~meth ~key ~elapsed_ms outcome =
  sh.total <- sh.total + 1;
  (match Hashtbl.find_opt sh.latencies meth with
  | Some l -> l := elapsed_ms :: !l
  | None -> Hashtbl.replace sh.latencies meth (ref [ elapsed_ms ]));
  match outcome with
  | `Ok payload -> (
      match Hashtbl.find_opt sh.answers key with
      | None -> Hashtbl.replace sh.answers key payload
      | Some seen -> if seen <> payload then sh.inconsistent <- true)
  | `Err _ -> sh.errs <- sh.errs + 1
  | `Protocol _ -> sh.proto_errs <- sh.proto_errs + 1

(* ---------------------------------------------------------------- *)
(* Event-loop load phase                                             *)

(* One closed-loop connection: at most one request in flight, the next
   one issued as soon as the response line lands.  All connections are
   driven by a single poll(2) loop — one OS thread total, which is what
   lets the generator hold thousands of connections open. *)
type cstate = {
  c_fd : Unix.file_descr;
  c_inb : Buffer.t;
  c_outb : Buffer.t;
  c_session : string;
  c_cid : int;
  mutable c_idx : int;  (** per-connection request counter (drives the mix) *)
  mutable c_sent_ns : int;
  mutable c_meth : string;
  mutable c_key : string;
  mutable c_id : string;
  mutable c_inflight : bool;
  mutable c_done : bool;
}

type driver = {
  sh : shared;
  mutable issued : int;
  total : int;
  until : float;  (** wall-clock stop line for duration-bounded runs *)
  n : int;
  deadline_ms : int option;
}

let fail_conn d c reason =
  if not c.c_done then begin
    if c.c_inflight then begin
      record d.sh ~meth:c.c_meth ~key:c.c_key
        ~elapsed_ms:(float_of_int (Bbc_obs.now_ns () - c.c_sent_ns) /. 1e6)
        (`Protocol reason);
      c.c_inflight <- false
    end;
    c.c_done <- true;
    try Unix.close c.c_fd with Unix.Unix_error (_, _, _) -> ()
  end

let issue_next d c =
  if
    (not c.c_inflight) && (not c.c_done)
    && d.issued < d.total
    && Unix.gettimeofday () < d.until
  then begin
    let i = c.c_idx in
    c.c_idx <- i + 1;
    d.issued <- d.issued + 1;
    let id = Printf.sprintf "c%d-%d" c.c_cid i in
    let meth, req = query ~session:c.c_session ~deadline_ms:d.deadline_ms ~n:d.n ~id i in
    c.c_meth <- meth;
    c.c_key <- query_key ~n:d.n meth i;
    c.c_id <- id;
    c.c_inflight <- true;
    c.c_sent_ns <- Bbc_obs.now_ns ();
    Buffer.add_string c.c_outb (Json.to_string req);
    Buffer.add_char c.c_outb '\n'
  end
  else if (not c.c_inflight) && not c.c_done then begin
    (* Nothing left to issue and nothing outstanding: retire. *)
    c.c_done <- true;
    try Unix.close c.c_fd with Unix.Unix_error (_, _, _) -> ()
  end

let on_line d c line =
  if c.c_inflight then begin
    let elapsed_ms = float_of_int (Bbc_obs.now_ns () - c.c_sent_ns) /. 1e6 in
    record d.sh ~meth:c.c_meth ~key:c.c_key ~elapsed_ms (classify ~id:c.c_id line);
    c.c_inflight <- false;
    issue_next d c
  end
  (* An unsolicited line is a server bug, but counting it against a
     method would skew the mix; just flag it. *)
  else d.sh.proto_errs <- d.sh.proto_errs + 1

let chunk = Bytes.create 65536

let read_cstate d c =
  match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
  | 0 -> fail_conn d c "connection closed by server"
  | nread ->
      Buffer.add_subbytes c.c_inb chunk 0 nread;
      let data = Buffer.contents c.c_inb in
      let len = String.length data in
      let start = ref 0 in
      (try
         while not c.c_done do
           let nl = String.index_from data !start '\n' in
           let line = String.sub data !start (nl - !start) in
           start := nl + 1;
           on_line d c line
         done
       with Not_found -> ());
      if !start > 0 then begin
        let rest = String.sub data !start (len - !start) in
        Buffer.clear c.c_inb;
        Buffer.add_string c.c_inb rest
      end
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      fail_conn d c ("read: " ^ Unix.error_message e)

let write_cstate d c =
  let data = Buffer.contents c.c_outb in
  let len = String.length data in
  if len > 0 then
    match Unix.write_substring c.c_fd data 0 len with
    | written ->
        if written = len then Buffer.clear c.c_outb
        else if written > 0 then begin
          let rest = String.sub data written (len - written) in
          Buffer.clear c.c_outb;
          Buffer.add_string c.c_outb rest
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
        fail_conn d c ("write: " ^ Unix.error_message e)

let drive d states =
  let unfinished () = List.exists (fun c -> not c.c_done) states in
  (* Hard stop well past the workload's own stop line, so a hung server
     cannot hang the generator. *)
  let abort_at = d.until +. 30.0 in
  while unfinished () && Unix.gettimeofday () < abort_at do
    let live = List.filter (fun c -> not c.c_done) states in
    let slots = Array.of_list live in
    let n = Array.length slots in
    let fds = Array.map (fun c -> c.c_fd) slots in
    let events =
      Array.map
        (fun c ->
          Poll.pollin lor if Buffer.length c.c_outb > 0 then Poll.pollout else 0)
        slots
    in
    let revents = Array.make n 0 in
    (match Poll.poll ~fds ~events ~revents ~n ~timeout_ms:100 with
    | _ -> ()
    | exception Unix.Unix_error (_, _, _) -> ());
    Array.iteri
      (fun i c ->
        let r = revents.(i) in
        if not c.c_done then
          if r land Poll.pollin <> 0 then read_cstate d c
          else if r land Poll.pollerr <> 0 then
            fail_conn d c "connection error (POLLERR)")
      slots;
    Array.iter
      (fun c -> if (not c.c_done) && Buffer.length c.c_outb > 0 then write_cstate d c)
      slots;
    (* Past the stop line, idle connections must retire even though no
       IO event will fire for them. *)
    if Unix.gettimeofday () >= d.until then
      List.iter (fun c -> if not c.c_inflight then issue_next d c) live
  done;
  List.iter (fun c -> fail_conn d c "load generator timed out waiting") states

(* ---------------------------------------------------------------- *)
(* Setup                                                             *)

let gen_request ~id ~name ~n =
  Json.Obj
    [
      ("id", Json.Str id);
      ("method", Json.Str "gen");
      ("params", Json.Obj [ ("name", Json.Str name); ("n", Json.Int n) ]);
    ]

let setup_sessions ~endpoint ~sessions ~name ~n =
  match bconnect endpoint with
  | Error e -> Error e
  | Ok conn ->
      let rec go acc i =
        if i = sessions then Ok (List.rev acc)
        else
          let id = Printf.sprintf "setup-%d" i in
          match rpc conn (gen_request ~id ~name ~n) with
          | Error e -> Error e
          | Ok line -> (
              match classify ~id line with
              | `Ok payload -> (
                  match Json.of_string payload with
                  | Ok p -> (
                      match Json.member "session" p with
                      | Some (Json.Str sid) -> go (sid :: acc) (i + 1)
                      | _ -> Error "gen response lacks a session id")
                  | Error e -> Error e)
              | `Err e -> Error ("gen failed: " ^ e)
              | `Protocol e -> Error ("gen failed: " ^ e))
      in
      let result = go [] 0 in
      bdisconnect conn;
      result

let run ~endpoint ~conns ~total ?(sessions = 1) ?(name = "ring") ?(n = 12)
    ?deadline_ms ?duration_s () =
  if conns < 1 then Error "conns must be >= 1"
  else if total < 1 then Error "total must be >= 1"
  else if sessions < 1 then Error "sessions must be >= 1"
  else
    match setup_sessions ~endpoint ~sessions ~name ~n with
    | Error e -> Error e
    | Ok session_ids -> (
        let session_arr = Array.of_list session_ids in
        let sh =
          {
            latencies = Hashtbl.create 8;
            answers = Hashtbl.create 64;
            total = 0;
            errs = 0;
            proto_errs = 0;
            inconsistent = false;
          }
        in
        (* Connect everyone first (blocking, sequential: loopback
           connects are cheap even at thousands), then drive them from
           the poll loop. *)
        let rec connect_all acc i =
          if i = conns then Ok (List.rev acc)
          else
            match Net.connect endpoint with
            | Ok fd ->
                Unix.set_nonblock fd;
                connect_all
                  ({
                     c_fd = fd;
                     c_inb = Buffer.create 512;
                     c_outb = Buffer.create 512;
                     c_session = session_arr.(i mod sessions);
                     c_cid = i;
                     c_idx = 0;
                     c_sent_ns = 0;
                     c_meth = "";
                     c_key = "";
                     c_id = "";
                     c_inflight = false;
                     c_done = false;
                   }
                  :: acc)
                  (i + 1)
            | Error e ->
                List.iter
                  (fun c ->
                    try Unix.close c.c_fd with Unix.Unix_error (_, _, _) -> ())
                  acc;
                Error (Printf.sprintf "connection %d: %s" i e)
        in
        match connect_all [] 0 with
        | Error e -> Error e
        | Ok states ->
            let t0 = Unix.gettimeofday () in
            let d =
              {
                sh;
                issued = 0;
                total;
                until =
                  (match duration_s with
                  | Some s -> t0 +. s
                  | None -> t0 +. 3600.0);
                n;
                deadline_ms;
              }
            in
            List.iter (fun c -> issue_next d c) states;
            drive d states;
            let elapsed_s = Unix.gettimeofday () -. t0 in
            let all = ref [] in
            let by_method =
              Hashtbl.fold
                (fun meth samples acc ->
                  all := List.rev_append !samples !all;
                  let sorted = Array.of_list !samples in
                  Array.sort compare sorted;
                  {
                    meth;
                    count = Array.length sorted;
                    m_p50_ms = percentile sorted 50.0;
                    m_p99_ms = percentile sorted 99.0;
                  }
                  :: acc)
                sh.latencies []
              |> List.sort (fun a b -> compare a.meth b.meth)
            in
            let sorted = Array.of_list !all in
            Array.sort compare sorted;
            Ok
              {
                conns;
                sessions;
                requests = sh.total;
                errors = sh.errs;
                protocol_errors = sh.proto_errs + (if sh.inconsistent then 1 else 0);
                elapsed_s;
                req_per_s =
                  (if elapsed_s > 0.0 then float_of_int sh.total /. elapsed_s
                   else 0.0);
                p50_ms = percentile sorted 50.0;
                p99_ms = percentile sorted 99.0;
                by_method;
                consistent = not sh.inconsistent;
              })

let request_shutdown ~endpoint =
  match bconnect endpoint with
  | Error e -> Error e
  | Ok conn ->
      let req =
        Json.Obj
          [
            ("id", Json.Str "shutdown");
            ("method", Json.Str "shutdown");
            ("params", Json.Obj []);
          ]
      in
      let result =
        match rpc conn req with
        | Error e -> Error e
        | Ok line -> (
            match classify ~id:"shutdown" line with
            | `Ok _ -> Ok ()
            | `Err e -> Error e
            | `Protocol e -> Error e)
      in
      bdisconnect conn;
      result
