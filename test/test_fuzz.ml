(* Tests of the fuzz subsystem itself: generator determinism, shrink
   tree shape, runner shrinking, and the differential suites. *)

module F = Bbc_fuzz.Gen
module DG = Bbc_fuzz.Domain_gen
module R = Bbc_fuzz.Runner
module Diff = Bbc_fuzz.Diff
module I = Bbc.Instance
module C = Bbc.Config

let take n s = List.of_seq (Seq.take n s)

let test_generate_deterministic () =
  for seed = 0 to 20 do
    let a = F.generate ~seed (DG.instance_config ()) in
    let b = F.generate ~seed (DG.instance_config ()) in
    let render (inst, cfg) =
      Bbc.Codec.instance_to_string inst ^ Bbc.Codec.config_to_string cfg
    in
    Alcotest.(check string)
      "same seed, same value" (render (F.root a)) (render (F.root b));
    (* The first shrink candidates replay identically too. *)
    Alcotest.(check (list string))
      "same seed, same shrink candidates"
      (List.map (fun t -> render (F.root t)) (take 5 (F.children a)))
      (List.map (fun t -> render (F.root t)) (take 5 (F.children b)))
  done

(* int_range shrinks toward the low bound, most aggressive first. *)
let test_int_shrink_order () =
  let rec find_tree seed =
    let t = F.generate ~seed (F.int_range 3 100) in
    if F.root t > 10 then t else find_tree (seed + 1)
  in
  let t = find_tree 0 in
  let x = F.root t in
  let candidates = List.map F.root (take 3 (F.children t)) in
  (match candidates with
  | first :: _ -> Alcotest.(check int) "first candidate is lo" 3 first
  | [] -> Alcotest.fail "no shrink candidates");
  List.iter
    (fun c ->
      Alcotest.(check bool) "candidates stay in range" true (c >= 3 && c < x))
    candidates

let test_list_shrinks_by_removal_first () =
  let rec find_tree seed =
    let t = F.generate ~seed (F.list ~max_len:6 (F.int_bound 9)) in
    if List.length (F.root t) >= 3 then t else find_tree (seed + 1)
  in
  let t = find_tree 0 in
  match take 1 (F.children t) with
  | [ first ] ->
      Alcotest.(check (list int)) "first candidate drops everything" [] (F.root first)
  | _ -> Alcotest.fail "no shrink candidates"

let test_bool_shrinks_to_false () =
  let rec find_true seed =
    let t = F.generate ~seed F.bool in
    if F.root t then t else find_true (seed + 1)
  in
  let t = find_true 0 in
  Alcotest.(check (list bool))
    "true shrinks to false" [ false ]
    (List.map F.root (List.of_seq (F.children t)))

let test_such_that_filters_shrinks () =
  let g = F.such_that (fun x -> x mod 2 = 0) (F.int_bound 100) in
  for seed = 0 to 30 do
    match F.generate ~seed g with
    | t ->
        Alcotest.(check bool) "root satisfies" true (F.root t mod 2 = 0);
        Seq.iter
          (fun c ->
            Alcotest.(check bool) "children satisfy" true (F.root c mod 2 = 0))
          (F.children t)
    | exception F.Discard -> ()
  done

(* The classic shrinking benchmark: x >= threshold must shrink to
   exactly the threshold under greedy descent. *)
let test_runner_shrinks_to_boundary () =
  match
    R.run ~count:200 ~seed:11 (F.int_bound 1000) (fun x ->
        if x < 37 then Ok () else Error "too big")
  with
  | Ok (Some f, _) ->
      Alcotest.(check int) "shrinks to the boundary" 37 f.R.shrunk;
      Alcotest.(check string) "keeps the failure message" "too big" f.R.shrunk_error
  | Ok (None, _) -> Alcotest.fail "property should have failed"
  | Error e -> Alcotest.fail e

let test_runner_respects_step_budget () =
  match
    R.run ~count:50 ~max_shrink_steps:0 ~seed:5 (F.int_bound 1000) (fun x ->
        if x < 1 then Ok () else Error "fail")
  with
  | Ok (Some f, stats) ->
      Alcotest.(check int) "no shrink steps used" 0 f.R.steps_used;
      Alcotest.(check int) "stats agree" 0 stats.R.shrink_steps;
      Alcotest.(check int) "counterexample unshrunk" f.R.original f.R.shrunk
  | Ok (None, _) -> Alcotest.fail "property should have failed"
  | Error e -> Alcotest.fail e

let test_runner_counts_discards () =
  let g = F.such_that ~max_tries:1 (fun x -> x < 10) (F.int_bound 1000) in
  match R.run ~count:20 ~seed:3 g (fun _ -> Ok ()) with
  | Ok (None, stats) ->
      Alcotest.(check int) "all cases ran" 20 stats.R.cases;
      Alcotest.(check bool) "some cases discarded" true (stats.R.discards > 0)
  | Ok (Some _, _) -> Alcotest.fail "property cannot fail"
  | Error _ -> () (* acceptable: the discard budget itself overflowed *)

let test_runner_deterministic () =
  let run () =
    R.run ~count:30 ~seed:99 (DG.instance ()) (fun inst ->
        if I.n inst mod 7 = 3 then Error "planted" else Ok ())
  in
  match (run (), run ()) with
  | Ok (Some a, _), Ok (Some b, _) ->
      Alcotest.(check int) "same failing case" a.R.case b.R.case;
      Alcotest.(check string)
        "same shrunk instance"
        (Bbc.Codec.instance_to_string a.R.shrunk)
        (Bbc.Codec.instance_to_string b.R.shrunk)
  | Ok (None, _), Ok (None, _) -> ()
  | _ -> Alcotest.fail "two identical runs disagreed"

let test_generated_configs_feasible () =
  for seed = 0 to 50 do
    let inst, cfg = F.root (F.generate ~seed (DG.instance_config ())) in
    Alcotest.(check bool) "config feasible" true (C.feasible inst cfg)
  done

let test_generated_moves_feasible () =
  let gen =
    let open F in
    let* inst, cfg = DG.instance_config () in
    let+ ms = DG.moves inst in
    (inst, cfg, ms)
  in
  for seed = 0 to 30 do
    let inst, cfg, ms = F.root (F.generate ~seed gen) in
    let final =
      List.fold_left (fun c (u, s) -> C.with_strategy c u s) cfg ms
    in
    Alcotest.(check bool) "moves keep the profile feasible" true
      (C.feasible inst final)
  done

let test_generated_k1_profiles_functional () =
  for seed = 0 to 50 do
    let inst, cfg = F.root (F.generate ~seed (DG.uniform_k1_config ())) in
    Alcotest.(check (option int)) "uniform k = 1" (Some 1) (I.uniform_k inst);
    Alcotest.(check bool) "profile functional" true (Option.is_some (C.successors cfg))
  done

let quick_opts = { Diff.seed = 2; count = 50; max_shrink_steps = 200 }

let test_diff_suites_pass () =
  List.iter
    (fun name ->
      match Diff.run_suite quick_opts name with
      | Error e -> Alcotest.fail e
      | Ok reports ->
          List.iter
            (fun (r : Diff.prop_report) ->
              match r.failure with
              | None -> ()
              | Some f ->
                  Alcotest.failf "%s/%s failed: %s" name r.name f.message)
            reports)
    (Result.get_ok (Diff.expand_suites "all"))

(* [all] is the one list behind both --suite all and its help text. *)
let test_all_suites () =
  Alcotest.(check (result (list string) string))
    "expand all" (Ok Diff.all_suites) (Diff.expand_suites "all");
  List.iter
    (fun name ->
      Alcotest.(check (result (list string) string))
        ("known suite " ^ name) (Ok [ name ]) (Diff.expand_suites name))
    Diff.all_suites;
  Alcotest.(check bool) "selfcheck left out" false (List.mem "selfcheck" Diff.all_suites);
  Alcotest.(check int) "every other suite in"
    (List.length Diff.suite_names - 1) (List.length Diff.all_suites)

let test_selfcheck_finds_planted_bug () =
  match Diff.run_suite { quick_opts with count = 20 } "selfcheck" with
  | Error e -> Alcotest.fail e
  | Ok reports -> (
      match reports with
      | [ { failure = Some f; _ } ] ->
          Alcotest.(check bool) "shrunk to a tiny instance" true
            (I.n f.instance <= 8)
      | _ -> Alcotest.fail "selfcheck suite must fail on its planted bug")

let suite =
  [
    Alcotest.test_case "generate is deterministic" `Quick test_generate_deterministic;
    Alcotest.test_case "int shrink order" `Quick test_int_shrink_order;
    Alcotest.test_case "list shrinks by removal" `Quick test_list_shrinks_by_removal_first;
    Alcotest.test_case "bool shrinks to false" `Quick test_bool_shrinks_to_false;
    Alcotest.test_case "such_that filters shrinks" `Quick test_such_that_filters_shrinks;
    Alcotest.test_case "runner shrinks to boundary" `Quick test_runner_shrinks_to_boundary;
    Alcotest.test_case "runner respects step budget" `Quick test_runner_respects_step_budget;
    Alcotest.test_case "runner counts discards" `Quick test_runner_counts_discards;
    Alcotest.test_case "runner deterministic" `Quick test_runner_deterministic;
    Alcotest.test_case "generated configs feasible" `Quick test_generated_configs_feasible;
    Alcotest.test_case "generated moves feasible" `Quick test_generated_moves_feasible;
    Alcotest.test_case "k=1 profiles functional" `Quick
      test_generated_k1_profiles_functional;
    Alcotest.test_case "differential suites pass" `Quick test_diff_suites_pass;
    Alcotest.test_case "all runs every other suite" `Quick test_all_suites;
    Alcotest.test_case "selfcheck finds planted bug" `Quick test_selfcheck_finds_planted_bug;
  ]
