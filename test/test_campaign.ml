(* Campaign subsystem: spec grid expansion and codec, trial
   determinism against direct Dynamics.run, checkpoint atomicity and
   replay, aggregator order-independence, and the runner's crash-resume
   byte-identity contract (simulated by seeding a fresh directory with a
   prefix of another run's chunks). *)

module Json = Bbc.Json
module Trial = Bbc.Trial
module Spec = Bbc_campaign.Spec
module Checkpoint = Bbc_campaign.Checkpoint
module Aggregate = Bbc_campaign.Aggregate
module Runner = Bbc_campaign.Runner

let spec : Spec.t =
  {
    name = "t";
    seed = 42;
    seeds_per_point = 5;
    max_rounds = 50;
    points =
      [
        {
          generator = Trial.Sparse { zero_pct = 50; max_weight = 3 };
          n = 8;
          k = 2;
          h = 2;
          l = 3;
        };
        { generator = Trial.Catalog "ring"; n = 6; k = 1; h = 2; l = 3 };
      ];
    inits = [ Trial.Empty; Trial.Random_start ];
    schedulers = [ Trial.Round_robin; Trial.Max_cost_first ];
    policies = [ Trial.Exact ];
    objectives = [ Bbc.Objective.Sum ];
  }

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "bbc-campaign-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (match Bbc_campaign.Checkpoint.ensure_dir dir with
    | Ok () -> ()
    | Error m -> failwith m);
    dir

(* ---------------------------------------------------------------- *)

let test_grid_expansion () =
  Alcotest.(check int) "unit count" 40 (Spec.unit_count spec);
  (* Every unit decodes to a valid trial; labels partition the grid into
     points x inits x schedulers cells, each seen seeds_per_point
     times. *)
  let labels = Hashtbl.create 16 in
  for i = 0 to Spec.unit_count spec - 1 do
    let t = Spec.unit spec i in
    (match Trial.validate t with
    | Ok () -> ()
    | Error m -> Alcotest.failf "unit %d invalid: %s" i m);
    let l = Trial.label t in
    Hashtbl.replace labels l (1 + Option.value ~default:0 (Hashtbl.find_opt labels l))
  done;
  Alcotest.(check int) "cells" 8 (Hashtbl.length labels);
  Hashtbl.iter
    (fun l c -> Alcotest.(check int) (l ^ " multiplicity") spec.seeds_per_point c)
    labels;
  (* Per-unit seeds are distinct (pairwise, across the whole grid). *)
  let seeds = List.init (Spec.unit_count spec) (fun i -> (Spec.unit spec i).Trial.seed) in
  Alcotest.(check int)
    "seeds distinct"
    (List.length seeds)
    (List.length (List.sort_uniq compare seeds));
  Alcotest.(check bool)
    "out of range rejected" true
    (match Spec.unit spec 40 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_spec_codec () =
  let rendered = Json.to_string (Spec.to_json spec) in
  match Spec.of_json (Spec.to_json spec) with
  | Error m -> Alcotest.fail m
  | Ok spec' ->
      Alcotest.(check bool) "decode/encode fixpoint" true (spec' = spec);
      Alcotest.(check string)
        "canonical rendering" rendered
        (Json.to_string (Spec.to_json spec'));
      (* A terse hand-written spec decodes with defaults applied. *)
      let terse =
        {|{"type":"bbc-campaign","seeds_per_point":3,
           "points":[{"generator":{"kind":"budgets","max_budget":4},"n":7,"k":1}]}|}
      in
      (match Spec.of_string terse with
      | Error m -> Alcotest.fail m
      | Ok s ->
          Alcotest.(check int) "default seed" 1 s.Spec.seed;
          Alcotest.(check int) "default max_rounds" 200 s.Spec.max_rounds;
          Alcotest.(check int) "default h" 2 (List.hd s.Spec.points).Spec.h;
          Alcotest.(check bool)
            "default axes" true
            (s.Spec.inits = [ Trial.Empty ]
            && s.Spec.schedulers = [ Trial.Round_robin ]
            && s.Spec.policies = [ Trial.Exact ]
            && s.Spec.objectives = [ Bbc.Objective.Sum ]));
      (* Junk is rejected with a decode or validation error. *)
      List.iter
        (fun bad ->
          match Spec.of_string bad with
          | Ok _ -> Alcotest.failf "accepted junk spec %s" bad
          | Error _ -> ())
        [
          {|{"seeds_per_point":3,"points":[]}|};
          {|{"type":"bbc-campaign","points":[{"generator":{"kind":"budgets","max_budget":4},"n":7,"k":1}]}|};
          {|{"type":"bbc-campaign","seeds_per_point":0,"points":[{"generator":{"kind":"budgets","max_budget":4},"n":7,"k":1}]}|};
          {|{"type":"bbc-campaign","seeds_per_point":3,"points":[{"generator":{"kind":"nope"},"n":7,"k":1}]}|};
          {|{"type":"bbc-campaign","seeds_per_point":3,"points":[{"generator":{"kind":"catalog","name":"ring"},"n":7,"k":1}],"inits":["seeded","weird"]}|};
        ]

(* The trial runner must be Dynamics.run exactly — same walk, same
   statistics — when handed the same materialized inputs. *)
let test_trial_matches_dynamics () =
  for i = 0 to Spec.unit_count spec - 1 do
    let t = Spec.unit spec i in
    let inst, cfg =
      match Trial.build t with Ok x -> x | Error m -> Alcotest.fail m
    in
    let direct =
      Bbc.Dynamics.run ~objective:t.Trial.objective ~policy:(Trial.policy_of t)
        ~scheduler:(Trial.scheduler_of t) ~max_rounds:t.Trial.max_rounds inst cfg
    in
    let s = match Trial.run t with Ok s -> s | Error m -> Alcotest.fail m in
    let expect_outcome, (stats : Bbc.Dynamics.stats), final =
      match direct with
      | Bbc.Dynamics.Converged (c, st) -> (Trial.Converged, st, c)
      | Bbc.Dynamics.Cycled { config; period; stats } ->
          (Trial.Cycled period, stats, config)
      | Bbc.Dynamics.Exhausted (c, st) -> (Trial.Exhausted, st, c)
    in
    Alcotest.(check bool) "outcome" true (s.Trial.outcome = expect_outcome);
    Alcotest.(check int) "rounds" stats.Bbc.Dynamics.rounds s.Trial.rounds;
    Alcotest.(check int) "steps" stats.Bbc.Dynamics.steps s.Trial.steps;
    Alcotest.(check int)
      "social cost"
      (Bbc.Eval.social_cost ~objective:t.Trial.objective inst final)
      s.Trial.social_cost
  done

let test_checkpoint_roundtrip () =
  let dir = temp_dir () in
  let summary =
    {
      Trial.outcome = Trial.Converged;
      rounds = 3;
      steps = 17;
      deviations = 9;
      social_cost = 123;
      strongly_connected = true;
    }
  in
  let e0 = { Checkpoint.unit_id = 0; payload = Checkpoint.Done summary } in
  let e1 = { Checkpoint.unit_id = 1; payload = Checkpoint.Failed "boom" } in
  (match Checkpoint.entry_of_line (Checkpoint.entry_to_line e0) with
  | Ok e -> Alcotest.(check bool) "done roundtrip" true (e = e0)
  | Error m -> Alcotest.fail m);
  (match Checkpoint.entry_of_line (Checkpoint.entry_to_line e1) with
  | Ok e -> Alcotest.(check bool) "failed roundtrip" true (e = e1)
  | Error m -> Alcotest.fail m);
  ignore (Checkpoint.append_chunk ~dir ~index:0 [ e0; e1 ]);
  (* A replayed unit id in a later chunk is ignored (first wins), and a
     leftover temp file is invisible to the loader. *)
  let dup = { Checkpoint.unit_id = 0; payload = Checkpoint.Failed "replay" } in
  ignore (Checkpoint.append_chunk ~dir ~index:1 [ dup ]);
  Out_channel.with_open_bin
    (Filename.concat dir ".tmp-chunk-00000002.jsonl-999")
    (fun oc -> output_string oc "torn");
  match Checkpoint.load ~dir ~units:2 with
  | Error m -> Alcotest.fail m
  | Ok (tbl, next) ->
      Alcotest.(check int) "next chunk index" 2 next;
      Alcotest.(check int) "entries" 2 (Hashtbl.length tbl);
      (match Hashtbl.find_opt tbl 0 with
      | Some (Checkpoint.Done s) ->
          Alcotest.(check int) "first wins" 123 s.Trial.social_cost
      | _ -> Alcotest.fail "unit 0 missing or replaced by replay");
      (match Hashtbl.find_opt tbl 1 with
      | Some (Checkpoint.Failed m) -> Alcotest.(check string) "failure kept" "boom" m
      | _ -> Alcotest.fail "unit 1 missing")

let test_aggregate_order_independent () =
  let summaries =
    List.init 60 (fun i ->
        ( Printf.sprintf "cell-%d" (i mod 3),
          {
            Trial.outcome =
              (if i mod 7 = 0 then Trial.Cycled 2
               else if i mod 5 = 0 then Trial.Exhausted
               else Trial.Converged);
            rounds = 1 + (i * 13 mod 40);
            steps = i * 3;
            deviations = i;
            social_cost = 100 + (i * 17 mod 59);
            strongly_connected = i mod 2 = 0;
          } ))
  in
  let render entries =
    let agg = Aggregate.create () in
    List.iter (fun (label, s) -> Aggregate.add agg ~label s) entries;
    Aggregate.add_failed agg ~label:"cell-0";
    Json.to_string
      (Aggregate.report_json ~name:"t" ~units:61 ~completed:60 ~quarantined:1 agg)
  in
  let forward = render summaries in
  let backward = render (List.rev summaries) in
  let shuffled =
    let arr = Array.of_list summaries in
    let rng = Bbc_prng.Splitmix.create 9 in
    Bbc_prng.Splitmix.shuffle rng arr;
    render (Array.to_list arr)
  in
  Alcotest.(check string) "reverse order" forward backward;
  Alcotest.(check string) "shuffled order" forward shuffled

(* Crash-resume byte-identity without processes: complete run in [a];
   seed [b] with only the first chunk of [a], then resume [b] with a
   different chunk size and job count.  Reports must match bytewise. *)
let test_runner_resume_identical () =
  let a = temp_dir () and b = temp_dir () in
  let opts_a = { Runner.jobs = Some 2; checkpoint_every = 7 } in
  let out_a =
    match Runner.run opts_a ~dir:a spec with Ok o -> o | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "all executed" 40 out_a.Runner.executed;
  Alcotest.(check int) "none quarantined" 0 out_a.Runner.quarantined;
  let copy name =
    let contents =
      In_channel.with_open_bin (Filename.concat a name) In_channel.input_all
    in
    Out_channel.with_open_bin (Filename.concat b name) (fun oc ->
        output_string oc contents)
  in
  copy "spec.json";
  copy "chunk-00000000.jsonl";
  let opts_b = { Runner.jobs = Some 1; checkpoint_every = 11 } in
  let out_b =
    match Runner.run opts_b ~dir:b spec with Ok o -> o | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "resume skipped the seeded chunk" 7 out_b.Runner.skipped;
  let read dir = In_channel.with_open_bin (Checkpoint.report_path dir) In_channel.input_all in
  Alcotest.(check string) "byte-identical reports" (read a) (read b);
  (* Runner.report recomputes the same bytes from disk alone. *)
  (match Runner.report ~dir:b with
  | Error m -> Alcotest.fail m
  | Ok json ->
      Alcotest.(check string) "report cmd matches" (read a) (Json.to_string json ^ "\n"));
  (* A different spec is refused. *)
  match Runner.run opts_b ~dir:b { spec with seed = 43 } with
  | Ok _ -> Alcotest.fail "spec drift accepted"
  | Error m ->
      Alcotest.(check bool) "drift error mentions spec" true
        (String.length m > 0)

(* One ring point, [seeds] units, every other axis a singleton. *)
let ring_spec seeds =
  {
    spec with
    seeds_per_point = seeds;
    points = [ { generator = Trial.Catalog "ring"; n = 6; k = 1; h = 2; l = 3 } ];
    inits = [ Trial.Empty ];
    schedulers = [ Trial.Round_robin ];
  }

(* Pending ids are drawn per chunk, not materialized up front: a 10^7-unit
   campaign stopped after its first 16-unit chunk allocates far less
   than the 240 MB a list of every id would take. *)
let test_runner_streams_pending () =
  let dir = temp_dir () in
  let before = Gc.allocated_bytes () in
  let on_chunk ~done_units ~total =
    Alcotest.(check (pair int int)) "first chunk" (16, 10_000_000) (done_units, total);
    raise Exit
  in
  (match
     Runner.run ~on_chunk { Runner.jobs = Some 1; checkpoint_every = 16 } ~dir
       (ring_spec 10_000_000)
   with
  | exception Exit -> ()
  | Ok _ -> Alcotest.fail "ran past the first chunk"
  | Error m -> Alcotest.fail m);
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f bytes < 64 MB" allocated)
    true (allocated < 64e6)

(* A checkpointed unit id outside the grid is a clean error from both
   run and report, not an exception from Spec.unit. *)
let test_checkpoint_unit_range () =
  let dir = temp_dir () in
  let small = ring_spec 3 in
  let opts = { Runner.jobs = Some 1; checkpoint_every = 2 } in
  (match Runner.run opts ~dir small with
  | Ok o -> Alcotest.(check int) "executed" 3 o.Runner.executed
  | Error m -> Alcotest.fail m);
  (* Chunks 0 and 1 hold the three units; chunk 2 is the corrupt one. *)
  List.iter
    (fun id ->
      let path =
        Checkpoint.append_chunk ~dir ~index:2
          [ { Checkpoint.unit_id = id; payload = Checkpoint.Failed "x" } ]
      in
      let expect = Printf.sprintf "%s: checkpoint: unit %d out of range [0,3)" path id in
      Alcotest.(check (result reject string))
        (Printf.sprintf "run, unit %d" id) (Error expect)
        (Result.map ignore (Runner.run opts ~dir small));
      Alcotest.(check (result reject string))
        (Printf.sprintf "report, unit %d" id) (Error expect)
        (Result.map ignore (Runner.report ~dir)))
    [ -5; 3 ]

let test_checkpoint_every_positive () =
  List.iter
    (fun checkpoint_every ->
      Alcotest.(check (result reject string))
        (Printf.sprintf "checkpoint_every %d" checkpoint_every)
        (Error "campaign: checkpoint_every must be at least 1")
        (Result.map ignore
           (Runner.run { Runner.jobs = Some 1; checkpoint_every } ~dir:(temp_dir ()) spec)))
    [ 0; -3 ]

(* The grid limit (10^9 units) holds even when the unchecked product of
   the axis lengths wraps past max_int (8 * max_int is -8). *)
let test_grid_limit () =
  let ok s = Result.is_ok (Spec.validate s) in
  Alcotest.(check bool) "at the limit" true (ok { spec with seeds_per_point = 125_000_000 });
  Alcotest.(check bool) "over the limit" false (ok { spec with seeds_per_point = 125_000_001 });
  Alcotest.(check bool) "past max_int" false (ok { spec with seeds_per_point = max_int })

let suite =
  [
    Alcotest.test_case "grid expansion" `Quick test_grid_expansion;
    Alcotest.test_case "spec codec" `Quick test_spec_codec;
    Alcotest.test_case "grid limit without overflow" `Quick test_grid_limit;
    Alcotest.test_case "trial matches dynamics" `Quick test_trial_matches_dynamics;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "aggregate order independence" `Quick
      test_aggregate_order_independent;
    Alcotest.test_case "runner resume byte-identity" `Quick
      test_runner_resume_identical;
    Alcotest.test_case "runner streams pending ids" `Quick test_runner_streams_pending;
    Alcotest.test_case "checkpoint unit out of range" `Quick test_checkpoint_unit_range;
    Alcotest.test_case "checkpoint_every at least 1" `Quick
      test_checkpoint_every_positive;
  ]
