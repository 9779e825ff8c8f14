(* Fixed-size domain pool with chunked deterministic data-parallel
   operations.  See bbc_parallel.mli for the contract. *)

let hard_cap = 128

(* Observability handles (no-ops while Bbc_obs is disabled).
   [pool.wait_ns] is per-domain sharded, so each worker's pickup latency
   lands in its own cells and the merged histogram is contention-free. *)
let obs_tasks = Bbc_obs.counter "pool.tasks"
let obs_runs = Bbc_obs.counter "pool.runs"
let obs_wait = Bbc_obs.histogram "pool.wait_ns"
let obs_workers = Bbc_obs.gauge "pool.workers"

(* ------------------------------------------------------------------ *)
(* Job-count configuration.                                            *)

let env_jobs () =
  match Sys.getenv_opt "BBC_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some (min j hard_cap)
      | _ -> None)

let configured_jobs = ref None

let set_default_jobs j =
  if j < 1 then invalid_arg "Bbc_parallel.set_default_jobs: jobs must be >= 1";
  configured_jobs := Some (min j hard_cap)

let default_jobs () =
  match !configured_jobs with
  | Some j -> j
  | None -> (
      match env_jobs () with
      | Some j -> j
      | None -> max 1 (min hard_cap (Domain.recommended_domain_count ())))

let jobs_for ?jobs ~threshold n =
  match jobs with
  | Some j -> max 1 j
  | None -> if n < threshold then 1 else default_jobs ()

(* ------------------------------------------------------------------ *)
(* The pool.

   Worker domains park on [work_ready] until a generation bump publishes
   a task.  Every worker runs the task closure; the closure itself pulls
   chunks from an atomic counter, so workers beyond the task's job bound
   (or beyond the available chunks) return immediately.  The caller
   participates too, then blocks on [work_done] until the workers that
   picked the task up are finished. *)

type pool = {
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable task : (unit -> unit) option;
  mutable pending : int;  (* workers still inside the current task *)
  mutable workers : unit Domain.t list;
  mutable nworkers : int;
  mutable shutdown : bool;
  mutable published_ns : int;  (* publish time of the current task *)
}

let pool =
  {
    mutex = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    generation = 0;
    task = None;
    pending = 0;
    workers = [];
    nworkers = 0;
    shutdown = false;
    published_ns = 0;
  }

(* Set while a domain is executing (a slice of) a pool task: any nested
   parallel operation falls back to its sequential path rather than
   deadlocking on the busy pool. *)
let inside_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let run_task_slice f =
  Domain.DLS.set inside_task true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set inside_task false) f

let worker_loop () =
  let last = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock pool.mutex;
    (* Wait for a generation this worker has not served yet AND an active
       task: a worker spawned between two runs starts with [last = 0] but
       must not pick up a generation that already completed. *)
    while
      (pool.task = None || pool.generation = !last) && not pool.shutdown
    do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.shutdown then begin
      Mutex.unlock pool.mutex;
      continue := false
    end
    else begin
      last := pool.generation;
      let task = Option.get pool.task in
      let published = pool.published_ns in
      Mutex.unlock pool.mutex;
      if Bbc_obs.enabled () then begin
        (* Queue wait: publish-to-pickup latency, sharded per worker. *)
        Bbc_obs.observe obs_wait (Bbc_obs.now_ns () - published);
        Bbc_obs.incr obs_tasks
      end;
      (* Task closures record their own exceptions; see [run]. *)
      run_task_slice task;
      Mutex.lock pool.mutex;
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.mutex
    end
  done

let teardown () =
  Mutex.lock pool.mutex;
  pool.shutdown <- true;
  Condition.broadcast pool.work_ready;
  let workers = pool.workers in
  pool.workers <- [];
  pool.nworkers <- 0;
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers

let () = at_exit teardown

(* Grow the pool to at least [n] workers (it never shrinks: the pool is
   sized once from the first effective job count and only grows when a
   caller explicitly requests more jobs than it has served so far). *)
let ensure_workers n =
  let n = min n (hard_cap - 1) in
  Mutex.lock pool.mutex;
  if (not pool.shutdown) && pool.nworkers < n then begin
    for _ = pool.nworkers + 1 to n do
      pool.workers <- Domain.spawn worker_loop :: pool.workers
    done;
    pool.nworkers <- n
  end;
  let available = pool.nworkers in
  Mutex.unlock pool.mutex;
  Bbc_obs.set_gauge obs_workers (float_of_int available);
  available

(* Run [body] on [jobs] participants (the caller plus [jobs - 1] pool
   workers).  [body] must be safe to run concurrently with itself; the
   chunked operations below satisfy that by construction. *)
let run ~jobs body =
  let jobs = max 1 (min jobs hard_cap) in
  if jobs = 1 || Domain.DLS.get inside_task then body ()
  else begin
    let first_exn = Atomic.make None in
    let guarded () =
      try body ()
      with exn ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set first_exn None (Some (exn, bt)))
    in
    let available = ensure_workers (jobs - 1) in
    if available = 0 then body ()
    else begin
      Mutex.lock pool.mutex;
      pool.task <- Some guarded;
      pool.pending <- available;
      pool.generation <- pool.generation + 1;
      pool.published_ns <- (if Bbc_obs.enabled () then Bbc_obs.now_ns () else 0);
      Condition.broadcast pool.work_ready;
      Mutex.unlock pool.mutex;
      if Bbc_obs.enabled () then begin
        Bbc_obs.incr obs_runs;
        Bbc_obs.incr obs_tasks (* the caller participates too *)
      end;
      run_task_slice guarded;
      Mutex.lock pool.mutex;
      while pool.pending > 0 do
        Condition.wait pool.work_done pool.mutex
      done;
      pool.task <- None;
      Mutex.unlock pool.mutex;
      match Atomic.get first_exn with
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Chunked operations.                                                 *)

let resolve_jobs jobs = match jobs with Some j -> max 1 j | None -> default_jobs ()

(* Chunk geometry for the index range [lo, hi): aim for several chunks
   per job so stragglers rebalance, but never fewer than [chunk] = 1. *)
let chunk_size ?chunk ~jobs lo hi =
  let len = hi - lo in
  match chunk with
  | Some c -> max 1 c
  | None -> max 1 (1 + ((len - 1) / (jobs * 8)))

let parallel_for_chunks ?jobs ?chunk lo hi f =
  let jobs = resolve_jobs jobs in
  if hi <= lo then ()
  else if jobs = 1 || hi - lo = 1 then f lo hi
  else begin
    let chunk = chunk_size ?chunk ~jobs lo hi in
    let nchunks = 1 + ((hi - lo - 1) / chunk) in
    let next = Atomic.make 0 in
    let participants = Atomic.make 0 in
    run ~jobs (fun () ->
        if Atomic.fetch_and_add participants 1 < jobs then begin
          let continue = ref true in
          while !continue do
            let c = Atomic.fetch_and_add next 1 in
            if c >= nchunks then continue := false
            else begin
              let start = lo + (c * chunk) in
              f start (min hi (start + chunk))
            end
          done
        end)
  end

let parallel_for ?jobs ?chunk lo hi f =
  parallel_for_chunks ?jobs ?chunk lo hi (fun start stop ->
      for i = start to stop - 1 do
        f i
      done)

let parallel_init ?jobs ?chunk n f =
  if n < 0 then invalid_arg "Bbc_parallel.parallel_init: negative length";
  (* Every index, index 0 included, runs on the pool: seeding the array
     with [f 0] on the caller would leave the other domains idle for it. *)
  let out = Array.make n None in
  parallel_for ?jobs ?chunk 0 n (fun i -> out.(i) <- Some (f i));
  Array.map Option.get out

let parallel_find_first ?jobs ?chunk lo hi f =
  let jobs = resolve_jobs jobs in
  if hi <= lo then None
  else if jobs = 1 then begin
    let rec go i = if i >= hi then None else match f i with Some _ as r -> r | None -> go (i + 1) in
    go lo
  end
  else begin
    let chunk = chunk_size ?chunk ~jobs lo hi in
    let nchunks = 1 + ((hi - lo - 1) / chunk) in
    let next = Atomic.make 0 in
    let participants = Atomic.make 0 in
    (* Lowest index with a hit so far; [hi] = none yet.  A participant
       abandons work at or beyond the current best, but keeps scanning
       below it, so the final winner is exactly the first hit in index
       order — the same answer as the sequential scan. *)
    let best = Atomic.make hi in
    let results = Array.make nchunks None in
    let rec lower_best i =
      let cur = Atomic.get best in
      if i < cur && not (Atomic.compare_and_set best cur i) then lower_best i
    in
    run ~jobs (fun () ->
        if Atomic.fetch_and_add participants 1 < jobs then begin
          let continue = ref true in
          while !continue do
            let c = Atomic.fetch_and_add next 1 in
            if c >= nchunks then continue := false
            else begin
              let start = lo + (c * chunk) in
              if start >= Atomic.get best then continue := false
              else begin
                let stop = min hi (start + chunk) in
                let i = ref start in
                while !i < stop && !i < Atomic.get best do
                  (match f !i with
                  | Some _ as r ->
                      results.(c) <- Option.map (fun v -> (!i, v)) r;
                      lower_best !i;
                      i := stop
                  | None -> ());
                  incr i
                done
              end
            end
          done
        end);
    let winner = Atomic.get best in
    if winner >= hi then None
    else
      Array.fold_left
        (fun acc r ->
          match (acc, r) with
          | Some _, _ -> acc
          | None, Some (i, v) when i = winner -> Some v
          | None, _ -> None)
        None results
  end
