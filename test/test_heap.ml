module H = Bbc_graph.Binary_heap

let test_empty () =
  let h = H.create () in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  Alcotest.(check int) "size" 0 (H.size h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Binary_heap.pop_min: empty heap") (fun () ->
      ignore (H.pop_min h));
  Alcotest.check_raises "min of empty" (Invalid_argument "Binary_heap.min_priority: empty heap")
    (fun () -> ignore (H.min_priority h))

(* [Some (priority, payload)] of the minimum, removed; [None] when empty. *)
let pop h =
  if H.is_empty h then None
  else
    let p = H.min_priority h in
    Some (p, H.pop_min h)

let test_ordering () =
  let h = H.create () in
  List.iter (fun p -> H.push h p (100 + p)) [ 5; 1; 9; 3; 7; 2; 8 ];
  let rec drain acc =
    match pop h with Some (p, v) -> drain ((p, v) :: acc) | None -> List.rev acc
  in
  let out = drain [] in
  Alcotest.(check (list (pair int int))) "sorted with payloads"
    [ (1, 101); (2, 102); (3, 103); (5, 105); (7, 107); (8, 108); (9, 109) ]
    out

let test_duplicates () =
  let h = H.create () in
  H.push h 4 0;
  H.push h 4 1;
  H.push h 4 2;
  Alcotest.(check int) "size" 3 (H.size h);
  let prios = List.init 3 (fun _ -> fst (Option.get (pop h))) in
  Alcotest.(check (list int)) "equal priorities" [ 4; 4; 4 ] prios

let test_growth () =
  let h = H.create ~capacity:1 () in
  for i = 999 downto 0 do
    H.push h i i
  done;
  Alcotest.(check int) "size after growth" 1000 (H.size h);
  for i = 0 to 999 do
    Alcotest.(check (option (pair int int))) "ascending" (Some (i, i)) (pop h)
  done

let test_interleaved () =
  let h = H.create () in
  H.push h 10 0;
  H.push h 5 1;
  Alcotest.(check (option (pair int int))) "min first" (Some (5, 1)) (pop h);
  H.push h 1 2;
  H.push h 20 3;
  Alcotest.(check (option (pair int int))) "new min" (Some (1, 2)) (pop h);
  Alcotest.(check (option (pair int int))) "then" (Some (10, 0)) (pop h);
  H.clear h;
  Alcotest.(check bool) "cleared" true (H.is_empty h)

let test_random_heapsort () =
  let rng = Bbc_prng.Splitmix.create 55 in
  for _ = 1 to 20 do
    let xs = List.init 200 (fun _ -> Bbc_prng.Splitmix.int rng 1000) in
    let h = H.create () in
    List.iter (fun x -> H.push h x x) xs;
    let rec drain acc =
      match pop h with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
    in
    Alcotest.(check (list int)) "heapsort = sort" (List.sort compare xs) (drain [])
  done

(* Dijkstra's inner loop pops through [min_priority] and [pop_min]; on
   a heap that has grown, neither allocates. *)
let test_pop_allocates_nothing () =
  let h = H.create ~capacity:1024 () in
  let drained = ref 0 in
  let before = Gc.minor_words () in
  for round = 1 to 10 do
    for i = 0 to 999 do
      H.push h ((i * 7919) mod 1000) round
    done;
    while not (H.is_empty h) do
      ignore (Sys.opaque_identity (H.min_priority h));
      drained := !drained + H.pop_min h
    done
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every payload popped" 55000 !drained;
  if words > 64. then Alcotest.failf "10000 pushes and pops allocated %.0f words" words

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "duplicate priorities" `Quick test_duplicates;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "interleaved ops" `Quick test_interleaved;
    Alcotest.test_case "random heapsort" `Quick test_random_heapsort;
    Alcotest.test_case "pop allocates nothing" `Quick test_pop_allocates_nothing;
  ]
