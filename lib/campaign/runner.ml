module Json = Bbc.Json
module Trial = Bbc.Trial

type opts = { jobs : int option; checkpoint_every : int }

let default_opts = { jobs = None; checkpoint_every = 256 }

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

(* [Trial.run] is pure, so a unit that fails or raises would do the
   same on any retry: it is quarantined on its first attempt. *)
let exec_unit spec id =
  let trial = Spec.unit spec id in
  let payload =
    match Trial.run trial with
    | Ok s -> Checkpoint.Done s
    | Error m -> Checkpoint.Failed m
    | exception e -> Checkpoint.Failed (Printexc.to_string e)
  in
  { Checkpoint.unit_id = id; payload }

(* The next [chunk_size] unchecked ids at or after [!cursor], ascending;
   advances [cursor] past them. *)
let next_chunk ~chunk_size ~total tbl cursor =
  let ids = ref [] and len = ref 0 in
  while !len < chunk_size && !cursor < total do
    if not (Hashtbl.mem tbl !cursor) then begin
      ids := !cursor :: !ids;
      incr len
    end;
    incr cursor
  done;
  Array.of_list (List.rev !ids)

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

(* Fold one unit's payload into the aggregate; true if quarantined. *)
let absorb_entry spec agg id payload =
  let label = Trial.label (Spec.unit spec id) in
  match payload with
  | Checkpoint.Done s ->
      Aggregate.add agg ~label s;
      false
  | Checkpoint.Failed _ ->
      Aggregate.add_failed agg ~label;
      true

(* Fold already-checkpointed units into the aggregate; returns how many
   of them are quarantined. *)
let absorb spec agg tbl =
  Hashtbl.fold
    (fun id payload failed -> if absorb_entry spec agg id payload then failed + 1 else failed)
    tbl 0

let write_report ~dir spec agg ~total ~completed ~quarantined =
  let path = Checkpoint.report_path dir in
  let json =
    Aggregate.report_json ~name:spec.Spec.name ~units:total ~completed ~quarantined agg
  in
  Checkpoint.write_atomic ~path (Json.to_string json ^ "\n");
  path

let run ?(on_chunk = fun ~done_units:_ ~total:_ -> ()) opts ~dir spec =
  Bbc_obs.with_span "campaign.run" (fun () ->
      let* () =
        if opts.checkpoint_every < 1 then
          Error "campaign: checkpoint_every must be at least 1"
        else Ok ()
      in
      let* () = Spec.validate spec in
      let* () = Checkpoint.ensure_dir dir in
      let* () = bind_spec ~dir spec in
      let total = Spec.unit_count spec in
      let* tbl, next_index = Checkpoint.load ~dir ~units:total in
      let agg = Aggregate.create () in
      let quarantined = ref (absorb spec agg tbl) in
      let skipped = Hashtbl.length tbl in
      Bbc_obs.add units_skipped skipped;
      let executed = ref 0 in
      let cursor = ref 0 in
      let rec loop chunk_ix =
        let ids = next_chunk ~chunk_size:opts.checkpoint_every ~total tbl cursor in
        if Array.length ids > 0 then begin
          let entries =
            Bbc_obs.with_span "campaign.chunk" (fun () ->
                Array.to_list
                  (Bbc_parallel.parallel_init ?jobs:opts.jobs ~chunk:1 (Array.length ids)
                     (fun i -> exec_unit spec ids.(i))))
          in
          ignore (Checkpoint.append_chunk ~dir ~index:chunk_ix entries);
          Bbc_obs.incr chunks_written;
          List.iter
            (fun (e : Checkpoint.entry) ->
              incr executed;
              if absorb_entry spec agg e.unit_id e.payload then begin
                Bbc_obs.incr units_quarantined;
                incr quarantined
              end
              else Bbc_obs.incr units_completed)
            entries;
          on_chunk ~done_units:(skipped + !executed) ~total;
          loop (chunk_ix + 1)
        end
      in
      loop next_index;
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
  let total = Spec.unit_count spec in
  let* tbl, _ = Checkpoint.load ~dir ~units:total in
  let agg = Aggregate.create () in
  let failed = absorb spec agg tbl in
  let completed = Hashtbl.length tbl - failed in
  Ok
    (Aggregate.report_json ~name:spec.Spec.name ~units:total
       ~completed ~quarantined:failed agg)
