type t = {
  id : string;
  instance : Bbc.Instance.t;
  mutable config : Bbc.Config.t;
  mutable costs : (Bbc.Objective.t * int array) list;
  mutable walk_index : int;
  mutable walk_deviations : int;
  mutable walk_quiet : int;
  mutable last_used_ns : int;
}

let set_config s config =
  s.config <- config;
  s.costs <- []

let all_costs ?(objective = Bbc.Objective.Sum) s =
  match List.assoc_opt objective s.costs with
  | Some costs -> costs
  | None ->
      let costs = Bbc.Eval.all_costs ~objective s.instance s.config in
      s.costs <- (objective, costs) :: s.costs;
      costs

let node_cost ?objective s u = (all_costs ?objective s).(u)

(* The table and id counter are shared mutable state touched from pool
   workers (gen / load_instance / close_session run as independent
   groups and parallelize freely) as well as the transport domain, and
   stdlib Hashtbl is not domain-safe — every structural access goes
   through [lock].  The session records themselves need no lock: all
   requests naming the same session are serialized onto one worker per
   batch by the scheduler. *)
type store = {
  tbl : (string, t) Hashtbl.t;
  mutable next_id : int;
  capacity : int;
  ttl_ns : int;
  lock : Mutex.t;
}

let locked store f =
  Mutex.lock store.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock store.lock) f

let default_ttl_ns = 600_000_000_000 (* 10 min *)

let create_store ?(capacity = 1024) ?(ttl_ns = default_ttl_ns) () =
  {
    tbl = Hashtbl.create 64;
    next_id = 1;
    capacity;
    ttl_ns;
    lock = Mutex.create ();
  }

(* Caller holds [store.lock].  [last_used_ns] is written by workers
   without the lock, but plain int stores never tear in OCaml, and a
   session touched this batch has a fresh stamp well inside any sane
   TTL. *)
let expire_idle_locked store ~now_ns =
  if store.ttl_ns > 0 then begin
    let stale =
      Hashtbl.fold
        (fun id s acc ->
          if now_ns - s.last_used_ns > store.ttl_ns then id :: acc else acc)
        store.tbl []
    in
    List.iter (Hashtbl.remove store.tbl) stale
  end

let add store ~now_ns instance config =
  locked store (fun () ->
      if Hashtbl.length store.tbl >= store.capacity then
        (* Reclaim abandoned sessions before refusing, so clients
           that never close_session cannot exhaust the budget
           forever. *)
        expire_idle_locked store ~now_ns;
      if Hashtbl.length store.tbl >= store.capacity then
        Error
          (Printf.sprintf "session store at capacity (%d live sessions)"
             store.capacity)
      else begin
        let id = Printf.sprintf "s%d" store.next_id in
        store.next_id <- store.next_id + 1;
        let s =
          {
            id;
            instance;
            config;
            costs = [];
            walk_index = 0;
            walk_deviations = 0;
            walk_quiet = 0;
            last_used_ns = now_ns;
          }
        in
        Hashtbl.replace store.tbl id s;
        Ok s
      end)

let find store id = locked store (fun () -> Hashtbl.find_opt store.tbl id)

let remove store id =
  locked store (fun () ->
      let existed = Hashtbl.mem store.tbl id in
      Hashtbl.remove store.tbl id;
      existed)

let count store = locked store (fun () -> Hashtbl.length store.tbl)
