(* Bbc_experiments.Registry: the id scheme the CLI advertises (unique,
   contiguous e1..eN), lookup behavior, and a full quick-mode run of
   every entry — the same sweep `bbc experiment` performs — to keep the
   registry executable end to end; and a slice of every Theorem-7 search
   family that `bbc experiment --full e11` runs. *)

module Registry = Bbc_experiments.Registry
module E11 = Bbc_experiments.E11_bbc_max

let ids () = List.map (fun e -> e.Registry.id) Registry.all

let test_ids_contiguous () =
  let ids = ids () in
  Alcotest.(check bool) "non-empty" true (ids <> []);
  Alcotest.(check int)
    "unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iteri
    (fun i id -> Alcotest.(check string) "contiguous" (Printf.sprintf "e%d" (i + 1)) id)
    ids

let test_find () =
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e -> Alcotest.(check string) "find returns the entry" id e.Registry.id
      | None -> Alcotest.failf "find %s returned None" id)
    (ids ());
  (match Registry.find (String.uppercase_ascii (List.hd (ids ()))) with
  | Some e -> Alcotest.(check string) "case-insensitive" "e1" e.Registry.id
  | None -> Alcotest.fail "uppercase lookup failed");
  let junk =
    [ ""; "e0"; Printf.sprintf "e%d" (List.length (ids ()) + 1); "e1 "; "x1"; "17"; "ee1" ]
  in
  List.iter
    (fun j ->
      match Registry.find j with
      | None -> ()
      | Some _ -> Alcotest.failf "find accepted junk id %S" j)
    junk

let test_all_run_quick () =
  (* Render to a throwaway buffer: the claim under test is "no entry
     raises in quick mode", not the prose. *)
  let buf = Buffer.create (1 lsl 16) in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun e ->
      match Registry.run_entry ~quick:true fmt e with
      | () -> Format.pp_print_flush fmt ()
      | exception ex ->
          Alcotest.failf "%s (%s) raised: %s" e.Registry.id e.Registry.title
            (Printexc.to_string ex))
    Registry.all;
  Alcotest.(check bool) "experiments printed output" true (Buffer.length buf > 0)

(* A fixed slice of each family, through the generators and the check
   that --full runs, at one and at two jobs: (games, with NE, without). *)
let test_theorem7_slices () =
  let slices () =
    [
      (* Rows 0 and 1 at weight 1, rows 2 and 3 over every weight. *)
      E11.complete Max ~first:(364 * 729) 729;
      E11.complete Sum ~first:(364 * 729) 729;
      E11.sparse (Bbc_prng.Splitmix.create 2468) ~n:6 4;
      E11.structured2 500;
      E11.structured3 200;
      E11.hybrid_small 50;
      E11.hybrid_big 50;
      E11.ring 200;
      E11.fig5 4;
    ]
  in
  let tally jobs =
    Bbc_parallel.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Bbc_parallel.set_default_jobs 1)
      (fun () -> List.map (fun (_, g, w, wo) -> (g, w, wo)) (E11.tally (slices ())))
  in
  let one = tally 1 in
  Alcotest.(check (list (triple int int int)))
    "pinned counts"
    [ (729, 729, 0); (729, 729, 0); (4, 4, 0); (500, 500, 0); (200, 200, 0);
      (50, 50, 0); (50, 50, 0); (200, 200, 0); (4, 4, 0) ]
    one;
  Alcotest.(check (list (triple int int int))) "jobs 1 = jobs 2" one (tally 2)

let suite =
  [
    Alcotest.test_case "ids unique and contiguous" `Quick test_ids_contiguous;
    Alcotest.test_case "find: hits and junk" `Quick test_find;
    Alcotest.test_case "all entries run clean (quick)" `Slow test_all_run_quick;
    Alcotest.test_case "Theorem-7 family slices" `Quick test_theorem7_slices;
  ]
