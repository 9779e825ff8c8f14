module Json = Bbc.Json

type config = {
  queue_cap : int;
  max_batch : int;
  jobs : int option;
  session_cap : int;
  session_ttl_ms : int;
  now : unit -> int;
}

let default_config () =
  {
    queue_cap = 256;
    max_batch = 64;
    jobs = None;
    session_cap = 1024;
    session_ttl_ms = 600_000;
    now = Bbc_obs.now_ns;
  }

type pending_req = {
  p_seq : int;
  p_client : int;
  p_req : Protocol.request;
  p_arrival_ns : int;
  p_deadline_ns : int option;  (** absolute *)
}

(* Exact per-endpoint counters (atomics: workers increment them during
   batch execution) behind the [stats] endpoint, plus Bbc_obs mirrors
   for --metrics and latency histograms. *)
type endpoint_obs = {
  served : int Atomic.t;
  failed : int Atomic.t;  (** error responses (excl. timeout/overload) *)
  obs_served : Bbc_obs.counter;
  obs_latency : Bbc_obs.histogram;
}

type t = {
  cfg : config;
  store : Session.store;
  queue : pending_req Queue.t;
  mutable next_seq : int;
  mutable stopping : bool;  (** admissions rejected once set *)
  stop_requested : bool Atomic.t;  (** set by the shutdown endpoint *)
  endpoints : (string * endpoint_obs) list;  (** one entry per method *)
  timeouts : int Atomic.t;
  overloads : int Atomic.t;
  rejected : int Atomic.t;  (** malformed / unknown-method / shutting-down *)
  batches : int Atomic.t;
  obs_timeouts : Bbc_obs.counter;
  obs_overloads : Bbc_obs.counter;
  obs_batches : Bbc_obs.counter;
  obs_queue_depth : Bbc_obs.gauge;
  obs_batch_size : Bbc_obs.histogram;
}

let create cfg =
  {
    cfg;
    store =
      Session.create_store ~capacity:cfg.session_cap
        ~ttl_ns:(cfg.session_ttl_ms * 1_000_000) ();
    queue = Queue.create ();
    next_seq = 0;
    stopping = false;
    stop_requested = Atomic.make false;
    endpoints =
      List.map
        (fun m ->
          ( m,
            {
              served = Atomic.make 0;
              failed = Atomic.make 0;
              obs_served = Bbc_obs.counter ("server.req." ^ m);
              obs_latency = Bbc_obs.histogram ("server.latency." ^ m);
            } ))
        Protocol.methods;
    timeouts = Atomic.make 0;
    overloads = Atomic.make 0;
    rejected = Atomic.make 0;
    batches = Atomic.make 0;
    obs_timeouts = Bbc_obs.counter "server.timeouts";
    obs_overloads = Bbc_obs.counter "server.overloaded";
    obs_batches = Bbc_obs.counter "server.batches";
    obs_queue_depth = Bbc_obs.gauge "server.queue_depth";
    obs_batch_size = Bbc_obs.histogram "server.batch_size";
  }

let sessions t = t.store
let pending t = Queue.length t.queue
let begin_shutdown t = t.stopping <- true
let shutdown_requested t = Atomic.get t.stop_requested

let endpoint t meth = List.assoc meth t.endpoints

let stats_json t =
  let counts =
    List.filter_map
      (fun (m, e) ->
        let s = Atomic.get e.served in
        if s = 0 then None else Some (m, Json.Int s))
      t.endpoints
  in
  let failed =
    List.fold_left (fun acc (_, e) -> acc + Atomic.get e.failed) 0 t.endpoints
  in
  Json.Obj
    [
      ("sessions", Json.Int (Session.count t.store));
      ("queue_depth", Json.Int (Queue.length t.queue));
      ("served", Json.Obj counts);
      ("errors", Json.Int failed);
      ("timeouts", Json.Int (Atomic.get t.timeouts));
      ("overloaded", Json.Int (Atomic.get t.overloads));
      ("rejected", Json.Int (Atomic.get t.rejected));
      ("batches", Json.Int (Atomic.get t.batches));
    ]

let env t =
  {
    Handlers.sessions = t.store;
    now = t.cfg.now;
    stats = (fun () -> stats_json t);
    request_shutdown = (fun () -> Atomic.set t.stop_requested true);
    assign_ids = false;
  }

(* ---------------------------------------------------------------- *)
(* Admission                                                          *)

let submit t ~client line =
  match Protocol.parse_request line with
  | Error (id, code, msg) ->
      Atomic.incr t.rejected;
      `Reply (Protocol.error ~id code msg)
  | Ok req ->
      if t.stopping then begin
        Atomic.incr t.rejected;
        `Reply (Protocol.error ~id:req.id Protocol.Shutting_down "server is draining")
      end
      else if Queue.length t.queue >= t.cfg.queue_cap then begin
        Atomic.incr t.overloads;
        Bbc_obs.incr t.obs_overloads;
        `Reply
          (Protocol.error ~id:req.id Protocol.Overloaded
             (Printf.sprintf "admission queue full (%d requests)" t.cfg.queue_cap))
      end
      else begin
        let arrival = t.cfg.now () in
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        Queue.add
          {
            p_seq = seq;
            p_client = client;
            p_req = req;
            p_arrival_ns = arrival;
            p_deadline_ns =
              Option.map (fun ms -> arrival + (ms * 1_000_000)) req.deadline_ms;
          }
          t.queue;
        Bbc_obs.set_gauge t.obs_queue_depth (float_of_int (Queue.length t.queue));
        `Queued
      end

(* ---------------------------------------------------------------- *)
(* Batch execution                                                    *)

(* The session a request binds to, or [None] for sessionless requests
   (ping, gen, stats, ...), which form singleton groups and so
   parallelize freely — safe because the session store's structural
   operations are mutex-protected (see {!Session}). *)
let session_key (r : Protocol.request) =
  match Json.member "session" r.params with Some (Json.Str s) -> Some s | _ -> None

let execute_one t env p =
  let e = endpoint t p.p_req.meth in
  let reply =
    match Handlers.handle env p.p_req with
    | Ok result -> Protocol.ok ~id:p.p_req.id result
    | Error (code, msg) ->
        Atomic.incr e.failed;
        Protocol.error ~id:p.p_req.id code msg
  in
  Atomic.incr e.served;
  Bbc_obs.incr e.obs_served;
  Bbc_obs.observe e.obs_latency (t.cfg.now () - p.p_arrival_ns);
  reply

let run_batch t =
  if Queue.is_empty t.queue then []
  else begin
    let now = t.cfg.now () in
    let batch = ref [] in
    while (not (Queue.is_empty t.queue)) && List.length !batch < t.cfg.max_batch do
      batch := Queue.pop t.queue :: !batch
    done;
    let batch = List.rev !batch in
    Bbc_obs.set_gauge t.obs_queue_depth (float_of_int (Queue.length t.queue));
    Bbc_obs.incr t.obs_batches;
    Bbc_obs.observe t.obs_batch_size (List.length batch);
    Atomic.incr t.batches;
    (* Deadline check at dequeue: an expired request is answered with a
       structured timeout and never reaches a worker. *)
    let expired, live =
      List.partition
        (fun p -> match p.p_deadline_ns with Some d -> now > d | None -> false)
        batch
    in
    let timeout_replies =
      List.map
        (fun p ->
          Atomic.incr t.timeouts;
          Bbc_obs.incr t.obs_timeouts;
          ( p.p_seq,
            p.p_client,
            Protocol.error ~id:p.p_req.id Protocol.Timeout
              (Printf.sprintf "deadline of %d ms expired in queue"
                 (Option.value ~default:0 p.p_req.deadline_ms)) ))
        expired
    in
    (* Group by session, preserving first-admission order of groups and
       admission order within each group.  Same-session requests must
       not run concurrently (a session is single-domain state);
       distinct groups are independent and fan out over the pool. *)
    let groups : (string option * pending_req list ref) list ref = ref [] in
    List.iter
      (fun p ->
        let key = session_key p.p_req in
        match
          if key = None then None
          else List.find_opt (fun (k, _) -> k = key) !groups
        with
        | Some (_, rs) -> rs := p :: !rs
        | None -> groups := !groups @ [ (key, ref [ p ]) ])
      live;
    let groups = Array.of_list (List.map (fun (_, rs) -> List.rev !rs) !groups) in
    let results : (int * int * string) list array =
      Array.make (Array.length groups) []
    in
    let env = env t in
    let exec_group g =
      results.(g) <-
        List.map (fun p -> (p.p_seq, p.p_client, execute_one t env p)) groups.(g)
    in
    let ngroups = Array.length groups in
    let jobs =
      min ngroups
        (match t.cfg.jobs with Some j -> max 1 j | None -> Bbc_parallel.default_jobs ())
    in
    if ngroups > 1 && jobs > 1 then
      Bbc_parallel.parallel_for ~jobs ~chunk:1 0 ngroups exec_group
    else Array.iteri (fun g _ -> exec_group g) groups;
    let all = timeout_replies @ List.concat (Array.to_list results) in
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) all
    |> List.map (fun (_, client, reply) -> (client, reply))
  end

let drain t =
  let rec go acc =
    match run_batch t with [] -> List.rev acc | replies -> go (List.rev_append replies acc)
  in
  go []
