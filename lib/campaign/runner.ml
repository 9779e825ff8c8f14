module Json = Bbc.Json
module Trial = Bbc.Trial

type mode = In_process | Via_server of string

type opts = {
  jobs : int option;
  checkpoint_every : int;
  retries : int;
  backoff_ms : int;
  mode : mode;
}

let default_opts =
  { jobs = None; checkpoint_every = 256; retries = 2; backoff_ms = 100; mode = In_process }

type outcome = {
  total : int;
  skipped : int;
  executed : int;
  quarantined : int;
  report_path : string;
}

let ( let* ) = Result.bind

let units_completed = Bbc_obs.counter "campaign.units.completed"
let units_skipped = Bbc_obs.counter "campaign.units.skipped"
let units_quarantined = Bbc_obs.counter "campaign.units.quarantined"
let chunks_written = Bbc_obs.counter "campaign.chunks.written"
let unit_retries = Bbc_obs.counter "campaign.unit.retries"

(* In-process execution of one chunk on the domain pool.  Trial
   failures are deterministic (validation / infeasible parameters), so
   only exceptions are retried before quarantine. *)
let exec_unit retries spec id =
  let trial = Spec.unit spec id in
  let rec go k =
    match Trial.run trial with
    | Ok s -> { Checkpoint.unit_id = id; payload = Checkpoint.Done s }
    | Error m -> { Checkpoint.unit_id = id; payload = Checkpoint.Failed m }
    | exception e ->
        if k < retries then begin
          Bbc_obs.incr unit_retries;
          go (k + 1)
        end
        else
          { Checkpoint.unit_id = id; payload = Checkpoint.Failed (Printexc.to_string e) }
  in
  go 0

let exec_chunk opts spec (chunk : int array) =
  match opts.mode with
  | In_process ->
      Array.to_list
        (Bbc_parallel.parallel_init ?jobs:opts.jobs ~chunk:1 (Array.length chunk) (fun i ->
             exec_unit opts.retries spec chunk.(i)))
  | Via_server ep -> (
      match Client.endpoint_of_string ep with
      | Error m ->
          (* Unreachable after [run] validated the endpoint; quarantine
             defensively rather than raise inside a chunk. *)
          Array.to_list
            (Array.map
               (fun id -> { Checkpoint.unit_id = id; payload = Checkpoint.Failed m })
               chunk)
      | Ok endpoint ->
          let threads =
            match opts.jobs with
            | Some j -> max 1 j
            | None -> Bbc_parallel.default_jobs ()
          in
          Client.run_units ~endpoint
            ~opts:
              { Client.threads; retries = opts.retries; backoff_ms = opts.backoff_ms }
            ~trial_of:(Spec.unit spec) chunk)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error m -> Error m

(* Bind the directory to the spec: first use writes the canonical
   rendering; later uses must match it bytewise. *)
let bind_spec ~dir spec =
  let canonical = Json.to_string (Spec.to_json spec) ^ "\n" in
  let path = Checkpoint.spec_path dir in
  if Sys.file_exists path then
    let* existing = read_file path in
    if existing = canonical then Ok ()
    else
      Error
        (path
       ^ ": campaign directory was started from a different spec; use a fresh --out")
  else begin
    Checkpoint.write_atomic ~path canonical;
    Ok ()
  end

let label_of spec id = Trial.label (Spec.unit spec id)

(* Fold already-checkpointed units into the aggregate; returns how many
   of them are quarantined. *)
let absorb spec agg tbl =
  let failed = ref 0 in
  Hashtbl.iter
    (fun id payload ->
      let label = label_of spec id in
      match payload with
      | Checkpoint.Done s -> Aggregate.add agg ~label s
      | Checkpoint.Failed _ ->
          incr failed;
          Aggregate.add_failed agg ~label)
    tbl;
  !failed

let write_report ~dir spec agg ~total ~completed ~quarantined =
  let path = Checkpoint.report_path dir in
  let json =
    Aggregate.report_json ~name:spec.Spec.name ~units:total ~completed ~quarantined agg
  in
  Checkpoint.write_atomic ~path (Json.to_string json ^ "\n");
  path

let run ?(on_chunk = fun ~done_units:_ ~total:_ -> ()) opts ~dir spec =
  Bbc_obs.with_span "campaign.run" (fun () ->
      let* () = Spec.validate spec in
      let* () =
        match opts.mode with
        | In_process -> Ok ()
        | Via_server ep -> Result.map (fun _ -> ()) (Client.endpoint_of_string ep)
      in
      let* () = Checkpoint.ensure_dir dir in
      let* () = bind_spec ~dir spec in
      let* tbl, next_chunk = Checkpoint.load ~dir in
      let total = Spec.unit_count spec in
      let agg = Aggregate.create () in
      let prior_failed = absorb spec agg tbl in
      let pending =
        Array.of_list
          (List.filter
             (fun id -> not (Hashtbl.mem tbl id))
             (List.init total (fun i -> i)))
      in
      let skipped = total - Array.length pending in
      Bbc_obs.add units_skipped skipped;
      let chunk_size = max 1 opts.checkpoint_every in
      let chunk_ix = ref next_chunk in
      let executed = ref 0 in
      let quarantined = ref prior_failed in
      let n_pending = Array.length pending in
      let pos = ref 0 in
      while !pos < n_pending do
        let len = min chunk_size (n_pending - !pos) in
        let chunk = Array.sub pending !pos len in
        pos := !pos + len;
        let entries =
          Bbc_obs.with_span "campaign.chunk" (fun () -> exec_chunk opts spec chunk)
        in
        (* Deterministic chunk files: sort by unit id before writing. *)
        let entries =
          List.sort
            (fun a b -> compare a.Checkpoint.unit_id b.Checkpoint.unit_id)
            entries
        in
        ignore (Checkpoint.append_chunk ~dir ~index:!chunk_ix entries);
        incr chunk_ix;
        Bbc_obs.incr chunks_written;
        List.iter
          (fun e ->
            incr executed;
            let label = label_of spec e.Checkpoint.unit_id in
            match e.Checkpoint.payload with
            | Checkpoint.Done s ->
                Bbc_obs.incr units_completed;
                Aggregate.add agg ~label s
            | Checkpoint.Failed _ ->
                Bbc_obs.incr units_quarantined;
                incr quarantined;
                Aggregate.add_failed agg ~label)
          entries;
        on_chunk ~done_units:(skipped + !executed) ~total
      done;
      let report_path =
        write_report ~dir spec agg ~total
          ~completed:(skipped + !executed - !quarantined)
          ~quarantined:!quarantined
      in
      Ok
        {
          total;
          skipped;
          executed = !executed;
          quarantined = !quarantined;
          report_path;
        })

let report ~dir =
  let* contents = read_file (Checkpoint.spec_path dir) in
  let* spec = Spec.of_string contents in
  let* tbl, _ = Checkpoint.load ~dir in
  let total = Spec.unit_count spec in
  let agg = Aggregate.create () in
  let failed = absorb spec agg tbl in
  let completed = Hashtbl.length tbl - failed in
  Ok
    (Aggregate.report_json ~name:spec.Spec.name ~units:total
       ~completed ~quarantined:failed agg)
